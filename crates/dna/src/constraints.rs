//! Biochemical sequence constraints and the homopolymer-free rotation code.
//!
//! Real synthesis and sequencing chemistry (Fig. 6) degrades sharply on long
//! homopolymer runs (AAAA…) and unbalanced GC content, so production DNA
//! codecs enforce constraints on every oligo and, when necessary, trade
//! density for compliance. This module provides the constraint checker and
//! the classic *rotation code*: each payload trit selects one of the three
//! bases different from the previous one, which makes runs of length > 1
//! impossible by construction (Goldman et al.'s encoding discipline) at a
//! density cost of log₂3 ≈ 1.58 bits/base vs the unconstrained 2 bits/base.

use crate::error::DnaError;
use crate::sequence::{DnaBase, DnaSequence};
use crate::Result;

/// Biochemical constraints an oligo must satisfy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConstraintSpec {
    /// Longest tolerated homopolymer run.
    pub max_homopolymer: usize,
    /// Minimum GC fraction over each window.
    pub gc_min: f64,
    /// Maximum GC fraction over each window.
    pub gc_max: f64,
    /// Sliding-window length for the GC check (whole strand if larger).
    pub gc_window: usize,
}

impl ConstraintSpec {
    /// Checks a strand; returns the first violation found.
    ///
    /// # Errors
    ///
    /// Returns [`DnaError::CodecError`] describing the violation.
    pub fn check(&self, seq: &DnaSequence) -> Result<()> {
        let run = max_homopolymer(seq);
        if run > self.max_homopolymer {
            return Err(DnaError::CodecError(format!(
                "homopolymer run of {run} exceeds limit {}",
                self.max_homopolymer
            )));
        }
        let window = self.gc_window.min(seq.len().max(1));
        let (lo, hi) = gc_window_range(seq, window);
        if seq.len() >= window && (lo < self.gc_min || hi > self.gc_max) {
            return Err(DnaError::CodecError(format!(
                "windowed GC content {lo:.2}..{hi:.2} outside {:.2}..{:.2}",
                self.gc_min, self.gc_max
            )));
        }
        Ok(())
    }
}

/// Longest homopolymer run in the strand (0 for the empty strand).
pub fn max_homopolymer(seq: &DnaSequence) -> usize {
    let bases = seq.bases();
    let mut best = 0;
    let mut run = 0;
    let mut last: Option<DnaBase> = None;
    for &b in bases {
        if Some(b) == last {
            run += 1;
        } else {
            run = 1;
            last = Some(b);
        }
        best = best.max(run);
    }
    best
}

/// Minimum and maximum GC fraction over all windows of the given length.
/// Returns `(0, 0)` for strands shorter than one base.
pub fn gc_window_range(seq: &DnaSequence, window: usize) -> (f64, f64) {
    let bases = seq.bases();
    if bases.is_empty() || window == 0 {
        return (0.0, 0.0);
    }
    let window = window.min(bases.len());
    let is_gc = |b: &DnaBase| matches!(b, DnaBase::G | DnaBase::C);
    let mut count = bases[..window].iter().filter(|b| is_gc(b)).count();
    let mut lo = count;
    let mut hi = count;
    for i in window..bases.len() {
        count += usize::from(is_gc(&bases[i]));
        count -= usize::from(is_gc(&bases[i - window]));
        lo = lo.min(count);
        hi = hi.max(count);
    }
    (lo as f64 / window as f64, hi as f64 / window as f64)
}

// Rotation tables: for each previous base (or none at the strand start),
// the three successor bases in trit order. Chosen so every trit value maps
// to a distinct base class across contexts (balanced usage).
fn rotation_successors(prev: Option<DnaBase>) -> [DnaBase; 3] {
    use DnaBase::*;
    match prev {
        None => [A, C, G],
        Some(A) => [C, G, T],
        Some(C) => [G, T, A],
        Some(G) => [T, A, C],
        Some(T) => [A, C, G],
    }
}

/// Encodes bytes with the rotation code: each byte becomes 6 trits
/// (3⁶ = 729 ≥ 256), each trit selects a base different from its
/// predecessor. The result contains no homopolymer runs by construction.
pub fn rotation_encode(bytes: &[u8]) -> DnaSequence {
    let mut bases = Vec::with_capacity(bytes.len() * 6);
    let mut prev = None;
    for &byte in bytes {
        let mut v = byte as u16;
        let mut trits = [0u8; 6];
        for t in trits.iter_mut() {
            *t = (v % 3) as u8;
            v /= 3;
        }
        for &t in &trits {
            let base = rotation_successors(prev)[t as usize];
            bases.push(base);
            prev = Some(base);
        }
    }
    DnaSequence::from_bases(bases)
}

/// Decodes a rotation-coded strand back to bytes.
///
/// # Errors
///
/// Returns [`DnaError::CodecError`] if the length is not a multiple of 6, a
/// base repeats its predecessor (impossible in a valid codeword), or a byte
/// overflows (trit pattern above 255).
pub fn rotation_decode(seq: &DnaSequence) -> Result<Vec<u8>> {
    if !seq.len().is_multiple_of(6) {
        return Err(DnaError::CodecError(format!(
            "rotation codeword length {} is not a multiple of 6",
            seq.len()
        )));
    }
    let mut out = Vec::with_capacity(seq.len() / 6);
    let mut prev = None;
    let mut trits = Vec::with_capacity(6);
    for &base in seq.bases() {
        let successors = rotation_successors(prev);
        let trit = successors
            .iter()
            .position(|&s| s == base)
            .ok_or_else(|| DnaError::CodecError("base repeats its predecessor".to_string()))?;
        trits.push(trit as u16);
        prev = Some(base);
        if trits.len() == 6 {
            let mut v = 0u16;
            for &t in trits.iter().rev() {
                v = v * 3 + t;
            }
            if v > 255 {
                return Err(DnaError::CodecError(format!(
                    "trit group decodes to {v} > 255"
                )));
            }
            out.push(v as u8);
            trits.clear();
        }
    }
    Ok(out)
}

/// Density of the rotation code in bits per base (the cost of compliance).
pub fn rotation_density_bits_per_base() -> f64 {
    8.0 / 6.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn homopolymer_detection() {
        let s = DnaSequence::parse("ACGTTTTACG").expect("valid");
        assert_eq!(max_homopolymer(&s), 4);
        assert_eq!(max_homopolymer(&DnaSequence::new()), 0);
        assert_eq!(
            max_homopolymer(&DnaSequence::parse("ACGT").expect("valid")),
            1
        );
    }

    #[test]
    fn gc_window_detection() {
        let s = DnaSequence::parse("GGGGAAAA").expect("valid");
        let (lo, hi) = gc_window_range(&s, 4);
        assert_eq!(hi, 1.0);
        assert_eq!(lo, 0.0);
        let balanced = DnaSequence::parse("GACTGACT").expect("valid");
        let (lo, hi) = gc_window_range(&balanced, 4);
        assert!(lo >= 0.25 && hi <= 0.75);
    }

    #[test]
    fn constraint_check_flags_violations() {
        let spec = ConstraintSpec {
            max_homopolymer: 3,
            gc_min: 0.2,
            gc_max: 0.8,
            gc_window: 8,
        };
        assert!(spec
            .check(&DnaSequence::parse("ACGTACGTAC").expect("valid"))
            .is_ok());
        assert!(spec
            .check(&DnaSequence::parse("AAAAACGT").expect("valid"))
            .is_err());
        assert!(spec
            .check(&DnaSequence::parse("GCGCGCGCGC").expect("valid"))
            .is_err());
    }

    #[test]
    fn rotation_round_trip() {
        let payload = b"constraint-aware DNA codec";
        let encoded = rotation_encode(payload);
        assert_eq!(encoded.len(), payload.len() * 6);
        assert_eq!(rotation_decode(&encoded).expect("valid codeword"), payload);
    }

    #[test]
    fn rotation_never_produces_homopolymers() {
        // All-equal bytes are the worst case for repeat patterns.
        for byte in [0u8, 0xFF, 0xAA, 0x55] {
            let encoded = rotation_encode(&[byte; 50]);
            assert_eq!(
                max_homopolymer(&encoded),
                1,
                "byte {byte:#04x} produced a run"
            );
        }
        // And across random content.
        let mut rng = f2_core::rng::rng_for(5, "rotation");
        let payload: Vec<u8> = (0..200).map(|_| f2_core::rng::Rng::gen(&mut rng)).collect();
        assert_eq!(max_homopolymer(&rotation_encode(&payload)), 1);
    }

    #[test]
    fn rotation_rejects_corrupt_codewords() {
        let payload = b"abc";
        let encoded = rotation_encode(payload);
        // Introduce a repeat (invalid under rotation coding).
        let mut bases = encoded.bases().to_vec();
        bases[3] = bases[2];
        assert!(rotation_decode(&DnaSequence::from_bases(bases)).is_err());
        // Bad length.
        let short = DnaSequence::from_bases(encoded.bases()[..5].to_vec());
        assert!(rotation_decode(&short).is_err());
    }

    #[test]
    fn rotation_density_cost() {
        // 8 bits / 6 bases ≈ 1.33 bits per base vs 2.0 unconstrained:
        // the compliance tax is a 1.5x length overhead.
        let d = rotation_density_bits_per_base();
        assert!((d - 8.0 / 6.0).abs() < 1e-12);
        let plain = DnaSequence::from_bytes(b"x").len();
        let rotated = rotation_encode(b"x").len();
        assert_eq!(rotated as f64 / plain as f64, 1.5);
    }

    #[test]
    fn rotation_gc_stays_balanced() {
        let mut rng = f2_core::rng::rng_for(6, "rotation-gc");
        let payload: Vec<u8> = (0..300).map(|_| f2_core::rng::Rng::gen(&mut rng)).collect();
        let encoded = rotation_encode(&payload);
        let (lo, hi) = gc_window_range(&encoded, 50);
        assert!(lo > 0.2 && hi < 0.8, "GC range {lo:.2}..{hi:.2}");
    }
}
