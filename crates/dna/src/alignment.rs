//! Banded global alignment with traceback, and alignment-based consensus.
//!
//! The column-vote consensus in [`crate::cluster`] is exact for
//! substitution-only noise but degrades under insertions/deletions (reads of
//! shifted length are excluded from the vote). Nanopore-class channels
//! (§VI's "harsh" profile) are indel-dominated, so production DNA-storage
//! decoders align each read to a draft before voting. This module provides
//! that machinery: a banded Needleman-Wunsch aligner with traceback and the
//! draft-anchored consensus built on it.

use crate::sequence::{DnaBase, DnaSequence};

/// One step of a pairwise alignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlignOp {
    /// Bases match.
    Match,
    /// Substitution (mismatch).
    Substitute,
    /// Base present in the read but not the draft (insertion).
    Insert,
    /// Base present in the draft but not the read (deletion).
    Delete,
}

/// A global alignment of a read against a draft.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Alignment {
    /// Edit operations in draft order.
    pub ops: Vec<AlignOp>,
    /// Total edit cost (unit costs).
    pub cost: usize,
}

impl Alignment {
    /// Number of draft positions covered (matches + substitutions +
    /// deletions).
    pub fn draft_len(&self) -> usize {
        self.ops
            .iter()
            .filter(|op| !matches!(op, AlignOp::Insert))
            .count()
    }
}

/// Banded Needleman-Wunsch global alignment (unit costs) with traceback.
/// Returns `None` if no alignment of cost ≤ `band` exists.
pub fn align_banded(draft: &DnaSequence, read: &DnaSequence, band: usize) -> Option<Alignment> {
    let a = draft.bases();
    let b = read.bases();
    let (n, m) = (a.len(), b.len());
    if n.abs_diff(m) > band {
        return None;
    }
    const BIG: usize = usize::MAX / 4;
    let width = 2 * band + 1;
    // dp[i][k] where k encodes j = i - band + k, clamped to the band.
    let idx = |i: usize, j: usize| -> Option<usize> {
        let lo = i.saturating_sub(band);
        if j < lo || j > i + band || j > m {
            None
        } else {
            Some(j + band - i)
        }
    };
    let mut dp = vec![vec![BIG; width]; n + 1];
    let mut back = vec![vec![0u8; width]; n + 1]; // 1=diag, 2=up(del), 3=left(ins)
    for j in 0..=band.min(m) {
        dp[0][idx(0, j).expect("in band")] = j;
        if j > 0 {
            back[0][idx(0, j).expect("in band")] = 3;
        }
    }
    for i in 1..=n {
        let lo = i.saturating_sub(band);
        let hi = (i + band).min(m);
        for j in lo..=hi {
            let k = idx(i, j).expect("in band");
            let mut best = BIG;
            let mut dir = 0u8;
            if j > 0 {
                if let Some(kd) = idx(i - 1, j - 1) {
                    let cost = dp[i - 1][kd] + usize::from(a[i - 1] != b[j - 1]);
                    if cost < best {
                        best = cost;
                        dir = 1;
                    }
                }
            }
            if let Some(ku) = idx(i - 1, j) {
                let cost = dp[i - 1][ku].saturating_add(1);
                if cost < best {
                    best = cost;
                    dir = 2;
                }
            }
            if j > 0 {
                if let Some(kl) = idx(i, j - 1) {
                    let cost = dp[i][kl].saturating_add(1);
                    if cost < best {
                        best = cost;
                        dir = 3;
                    }
                }
            }
            dp[i][k] = best;
            back[i][k] = dir;
        }
    }
    let final_k = idx(n, m)?;
    let cost = dp[n][final_k];
    if cost > band {
        return None;
    }
    // Traceback.
    let mut ops = Vec::with_capacity(n + band);
    let (mut i, mut j) = (n, m);
    while i > 0 || j > 0 {
        let k = idx(i, j).expect("traceback stays in band");
        match back[i][k] {
            1 => {
                ops.push(if a[i - 1] == b[j - 1] {
                    AlignOp::Match
                } else {
                    AlignOp::Substitute
                });
                i -= 1;
                j -= 1;
            }
            2 => {
                ops.push(AlignOp::Delete);
                i -= 1;
            }
            3 => {
                ops.push(AlignOp::Insert);
                j -= 1;
            }
            _ => return None, // unreachable cell
        }
    }
    ops.reverse();
    Some(Alignment { ops, cost })
}

/// Per-draft-position read bases after alignment: `Some(base)` where the
/// read covers the draft position (match/substitute), `None` where the read
/// deleted it. Insertions are dropped (they do not map to a draft column).
pub fn project_to_draft(
    draft: &DnaSequence,
    read: &DnaSequence,
    band: usize,
) -> Option<Vec<Option<DnaBase>>> {
    project_with_insertions(draft, read, band).map(|(cols, _)| cols)
}

/// A read projected onto draft columns (`None` where the read has a
/// deletion) plus its insertions as `(draft_position, base)` pairs.
pub type Projection = (Vec<Option<DnaBase>>, Vec<(usize, DnaBase)>);

/// Like [`project_to_draft`], but also returns the read's insertions as
/// `(draft_position, base)` pairs — the base the read inserts *before* that
/// draft column (`draft.len()` marks an append at the end).
pub fn project_with_insertions(
    draft: &DnaSequence,
    read: &DnaSequence,
    band: usize,
) -> Option<Projection> {
    let alignment = align_banded(draft, read, band)?;
    let mut column = Vec::with_capacity(draft.len());
    let mut insertions = Vec::new();
    let mut read_pos = 0usize;
    for op in alignment.ops {
        match op {
            AlignOp::Match | AlignOp::Substitute => {
                column.push(Some(read.bases()[read_pos]));
                read_pos += 1;
            }
            AlignOp::Delete => column.push(None),
            AlignOp::Insert => {
                insertions.push((column.len(), read.bases()[read_pos]));
                read_pos += 1;
            }
        }
    }
    debug_assert_eq!(column.len(), draft.len());
    Some((column, insertions))
}

/// Alignment-based consensus: the medoid read anchors a draft; every read is
/// aligned to it and each draft column takes the plurality base. Columns a
/// majority of reads delete are dropped; positions a majority of reads
/// insert at gain the plurality inserted base. A second refinement round
/// re-aligns every read against the round-one consensus, which repairs
/// errors inherited from the draft itself.
///
/// Returns an empty strand for an empty cluster.
pub fn consensus_aligned(reads: &[&DnaSequence], band: usize) -> DnaSequence {
    if reads.is_empty() {
        return DnaSequence::new();
    }
    if reads.len() == 1 {
        return reads[0].clone();
    }
    // Medoid draft (minimum summed distance; a pair beyond the band counts
    // as the longer read's length).
    let mut best = (usize::MAX, 0usize);
    for (i, a) in reads.iter().enumerate() {
        let total: usize = reads
            .iter()
            .map(|b| {
                crate::levenshtein::levenshtein_within(a, b, band).unwrap_or(a.len().max(b.len()))
            })
            .sum();
        if total < best.0 {
            best = (total, i);
        }
    }
    let mut draft = reads[best.1].clone();
    for _ in 0..2 {
        let refined = consensus_round(&draft, reads, band);
        if refined == draft {
            break;
        }
        draft = refined;
    }
    draft
}

fn consensus_round(draft: &DnaSequence, reads: &[&DnaSequence], band: usize) -> DnaSequence {
    let mut base_votes = vec![[0usize; 4]; draft.len()];
    let mut del_votes = vec![0usize; draft.len()];
    // ins_votes[pos][base]: reads inserting `base` before draft column `pos`.
    let mut ins_votes = vec![[0usize; 4]; draft.len() + 1];
    let mut voters = 0usize;
    for read in reads {
        if let Some((column, insertions)) = project_with_insertions(draft, read, band) {
            voters += 1;
            for (pos, b) in column.into_iter().enumerate() {
                match b {
                    Some(base) => base_votes[pos][base.to_bits() as usize] += 1,
                    None => del_votes[pos] += 1,
                }
            }
            for (pos, base) in insertions {
                ins_votes[pos][base.to_bits() as usize] += 1;
            }
        }
    }
    if voters == 0 {
        return draft.clone();
    }
    let majority = voters / 2;
    let mut bases = Vec::with_capacity(draft.len() + 2);
    let emit_insertion = |bases: &mut Vec<DnaBase>, pos: usize| {
        let (b, count) = ins_votes[pos]
            .iter()
            .enumerate()
            .max_by_key(|&(_, &c)| c)
            .map(|(i, &c)| (i, c))
            .expect("four bases");
        if count > majority {
            bases.push(DnaBase::from_bits(b as u8));
        }
    };
    for pos in 0..draft.len() {
        emit_insertion(&mut bases, pos);
        let (best_base, best_count) = base_votes[pos]
            .iter()
            .enumerate()
            .max_by_key(|&(_, &c)| c)
            .map(|(i, &c)| (i, c))
            .expect("four bases");
        if del_votes[pos] > best_count {
            continue; // majority says this draft base was an insertion artefact
        }
        bases.push(DnaBase::from_bits(best_base as u8));
    }
    emit_insertion(&mut bases, draft.len());
    DnaSequence::from_bases(bases)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::ChannelModel;
    use crate::levenshtein::levenshtein_dp;
    use f2_core::rng::rng_for;
    use f2_core::rng::Rng;

    fn seq(s: &str) -> DnaSequence {
        DnaSequence::parse(s).expect("valid sequence")
    }

    fn random_strand(len: usize, rng: &mut impl Rng) -> DnaSequence {
        DnaSequence::from_bases((0..len).map(|_| DnaBase::from_bits(rng.gen())).collect())
    }

    #[test]
    fn identical_sequences_align_with_zero_cost() {
        let s = seq("ACGTACGT");
        let a = align_banded(&s, &s, 4).expect("aligns");
        assert_eq!(a.cost, 0);
        assert!(a.ops.iter().all(|op| *op == AlignOp::Match));
    }

    #[test]
    fn alignment_cost_matches_edit_distance() {
        let mut rng = rng_for(1, "align");
        for _ in 0..30 {
            let a = random_strand(50, &mut rng);
            let mut b_bases = a.bases().to_vec();
            // A few random edits.
            for _ in 0..rng.gen_range(0..4) {
                match rng.gen_range(0..3) {
                    0 => {
                        let i = rng.gen_range(0..b_bases.len());
                        b_bases[i] = DnaBase::from_bits(rng.gen());
                    }
                    1 => {
                        let i = rng.gen_range(0..=b_bases.len());
                        b_bases.insert(i, DnaBase::from_bits(rng.gen()));
                    }
                    _ => {
                        if b_bases.len() > 1 {
                            let i = rng.gen_range(0..b_bases.len());
                            b_bases.remove(i);
                        }
                    }
                }
            }
            let b = DnaSequence::from_bases(b_bases);
            let d = levenshtein_dp(&a, &b).distance.expect("exact");
            let al = align_banded(&a, &b, 12).expect("within band");
            assert_eq!(al.cost, d, "alignment cost must equal edit distance");
        }
    }

    #[test]
    fn ops_reconstruct_the_read() {
        let draft = seq("ACGTACGTAC");
        let read = seq("ACTACGGTAC"); // del G@2, ins G@6 relative to draft
        let al = align_banded(&draft, &read, 6).expect("aligns");
        // Replaying ops over the draft must regenerate the read.
        let mut rebuilt = Vec::new();
        let (mut di, mut ri) = (0usize, 0usize);
        for op in &al.ops {
            match op {
                AlignOp::Match | AlignOp::Substitute => {
                    rebuilt.push(read.bases()[ri]);
                    di += 1;
                    ri += 1;
                }
                AlignOp::Delete => di += 1,
                AlignOp::Insert => {
                    rebuilt.push(read.bases()[ri]);
                    ri += 1;
                }
            }
        }
        assert_eq!(di, draft.len());
        assert_eq!(DnaSequence::from_bases(rebuilt), read);
    }

    #[test]
    fn band_too_small_returns_none() {
        let a = seq("AAAAAAAAAA");
        let b = seq("TTTTTTTTTT");
        assert!(align_banded(&a, &b, 4).is_none());
        assert!(align_banded(&a, &seq("AA"), 3).is_none()); // length gap 8 > 3
    }

    #[test]
    fn projection_marks_deletions() {
        let draft = seq("ACGT");
        let read = seq("AGT"); // C deleted
        let col = project_to_draft(&draft, &read, 3).expect("aligns");
        assert_eq!(col.len(), 4);
        assert_eq!(col[0], Some(DnaBase::A));
        assert_eq!(col[1], None);
        assert_eq!(col[2], Some(DnaBase::G));
        assert_eq!(col[3], Some(DnaBase::T));
    }

    #[test]
    fn aligned_consensus_recovers_under_indels() {
        let mut rng = rng_for(3, "align-cons");
        let original = random_strand(80, &mut rng);
        let ch = ChannelModel {
            substitution: 0.01,
            insertion: 0.01,
            deletion: 0.01,
            dropout: 0.0,
            mean_coverage: 1.0,
        };
        let mut recovered = 0;
        let trials = 10;
        for _ in 0..trials {
            let reads: Vec<DnaSequence> = (0..9).map(|_| ch.corrupt(&original, &mut rng)).collect();
            let refs: Vec<&DnaSequence> = reads.iter().collect();
            if consensus_aligned(&refs, 16) == original {
                recovered += 1;
            }
        }
        assert!(
            recovered >= 8,
            "aligned consensus recovered only {recovered}/{trials}"
        );
    }

    #[test]
    fn aligned_beats_column_vote_under_indels() {
        let mut rng = rng_for(4, "align-vs-col");
        let ch = ChannelModel {
            substitution: 0.01,
            insertion: 0.02,
            deletion: 0.02,
            dropout: 0.0,
            mean_coverage: 1.0,
        };
        let mut aligned_exact = 0;
        let mut column_exact = 0;
        let trials = 12;
        for _ in 0..trials {
            let original = random_strand(70, &mut rng);
            let reads: Vec<DnaSequence> =
                (0..11).map(|_| ch.corrupt(&original, &mut rng)).collect();
            let refs: Vec<&DnaSequence> = reads.iter().collect();
            if consensus_aligned(&refs, 16) == original {
                aligned_exact += 1;
            }
            if crate::cluster::consensus(&refs) == original {
                column_exact += 1;
            }
        }
        assert!(
            aligned_exact > column_exact,
            "aligned {aligned_exact}/{trials} should beat column vote {column_exact}/{trials}"
        );
    }

    #[test]
    fn consensus_edge_cases() {
        assert!(consensus_aligned(&[], 8).is_empty());
        let s = seq("ACGT");
        assert_eq!(consensus_aligned(&[&s], 8), s);
    }
}
