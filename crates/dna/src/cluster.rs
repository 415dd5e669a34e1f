//! Read clustering and consensus calling.
//!
//! §VI cites "Clustering Billions of Reads for DNA Data Storage" \[32\] as the
//! workload that makes edit distance the pipeline's bottleneck: every read
//! must be grouped with the other noisy copies of the same oligo. This
//! module implements the standard two-stage scheme: a cheap k-mer-sketch
//! prefilter, then a bit-parallel edit-distance threshold test against
//! cluster representatives; clusters are reduced to a consensus strand by
//! length-filtered column voting with a medoid fallback.

use crate::levenshtein::levenshtein_within;
use crate::sequence::{DnaBase, DnaSequence};

/// Clustering parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterConfig {
    /// Maximum edit distance to a cluster representative.
    pub distance_threshold: usize,
    /// k-mer size of the prefilter sketch.
    pub kmer: usize,
    /// Minimum shared-k-mer fraction to attempt the exact test.
    pub prefilter_threshold_millis: u32,
}

impl Default for ClusterConfig {
    /// Threshold 12 edits, 6-mers, 30% sketch overlap.
    fn default() -> Self {
        Self {
            distance_threshold: 12,
            kmer: 6,
            prefilter_threshold_millis: 300,
        }
    }
}

/// 256-bit k-mer occupancy sketch of a sequence (wide enough that typical
/// oligo lengths do not saturate it).
fn sketch(seq: &DnaSequence, k: usize) -> [u64; 4] {
    let bases = seq.bases();
    let mut s = [0u64; 4];
    if bases.len() < k {
        return s;
    }
    for win in bases.windows(k) {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in win {
            h ^= b.to_bits() as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        let bin = (h % 256) as usize;
        s[bin / 64] |= 1u64 << (bin % 64);
    }
    s
}

fn sketch_overlap_millis(a: [u64; 4], b: [u64; 4]) -> u32 {
    let mut inter = 0u32;
    let mut union = 0u32;
    for i in 0..4 {
        inter += (a[i] & b[i]).count_ones();
        union += (a[i] | b[i]).count_ones();
    }
    inter * 1000 / union.max(1)
}

/// Result of clustering a read pool.
#[derive(Debug, Clone, PartialEq)]
pub struct Clustering {
    /// Read indices per cluster.
    pub clusters: Vec<Vec<usize>>,
    /// Edit-distance threshold tests performed.
    pub distance_calls: u64,
    /// Candidate pairs skipped by the k-mer prefilter.
    pub prefilter_skips: u64,
}

/// Greedy single-pass clustering: each read joins the first cluster whose
/// representative is within the threshold, else founds a new cluster.
pub fn cluster_reads(reads: &[DnaSequence], cfg: &ClusterConfig) -> Clustering {
    let mut clusters: Vec<Vec<usize>> = Vec::new();
    let mut representatives: Vec<(usize, [u64; 4])> = Vec::new(); // (read idx, sketch)
    let mut distance_calls = 0u64;
    let mut prefilter_skips = 0u64;

    for (i, read) in reads.iter().enumerate() {
        let sk = sketch(read, cfg.kmer);
        let mut placed = false;
        for (c, &(rep_idx, rep_sketch)) in representatives.iter().enumerate() {
            if sketch_overlap_millis(sk, rep_sketch) < cfg.prefilter_threshold_millis {
                prefilter_skips += 1;
                continue;
            }
            distance_calls += 1;
            if levenshtein_within(read, &reads[rep_idx], cfg.distance_threshold).is_some() {
                clusters[c].push(i);
                placed = true;
                break;
            }
        }
        if !placed {
            clusters.push(vec![i]);
            representatives.push((i, sk));
        }
    }
    Clustering {
        clusters,
        distance_calls,
        prefilter_skips,
    }
}

/// Consensus of one cluster: column-majority vote over the reads of modal
/// length; if fewer than two reads share the modal length, the medoid read
/// (minimum summed distance to the others) is returned.
///
/// Returns an empty strand for an empty cluster.
pub fn consensus(reads: &[&DnaSequence]) -> DnaSequence {
    if reads.is_empty() {
        return DnaSequence::new();
    }
    if reads.len() == 1 {
        return reads[0].clone();
    }
    // Modal length.
    let mut length_counts = std::collections::HashMap::new();
    for r in reads {
        *length_counts.entry(r.len()).or_insert(0usize) += 1;
    }
    let (&modal_len, &modal_count) = length_counts
        .iter()
        .max_by_key(|&(&len, &count)| (count, std::cmp::Reverse(len)))
        .expect("non-empty cluster");

    if modal_count >= 2 && modal_len > 0 {
        let voters: Vec<&&DnaSequence> = reads.iter().filter(|r| r.len() == modal_len).collect();
        let bases = (0..modal_len)
            .map(|pos| {
                let mut counts = [0usize; 4];
                for v in &voters {
                    counts[v.bases()[pos].to_bits() as usize] += 1;
                }
                let best = counts
                    .iter()
                    .enumerate()
                    .max_by_key(|&(_, &c)| c)
                    .map(|(i, _)| i)
                    .expect("four bases");
                DnaBase::from_bits(best as u8)
            })
            .collect();
        return DnaSequence::from_bases(bases);
    }

    // Medoid fallback.
    let mut best = (usize::MAX, 0usize);
    for (i, a) in reads.iter().enumerate() {
        let total: usize = reads
            .iter()
            .map(|b| levenshtein_within(a, b, 24).unwrap_or(a.len().max(b.len())))
            .sum();
        if total < best.0 {
            best = (total, i);
        }
    }
    reads[best.1].clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::ChannelModel;
    use f2_core::rng::rng_for;
    use f2_core::rng::Rng;

    fn random_strand(len: usize, rng: &mut impl Rng) -> DnaSequence {
        DnaSequence::from_bases((0..len).map(|_| DnaBase::from_bits(rng.gen())).collect())
    }

    #[test]
    fn identical_reads_form_one_cluster() {
        let mut rng = rng_for(1, "cl");
        let s = random_strand(80, &mut rng);
        let reads = vec![s.clone(), s.clone(), s.clone()];
        let c = cluster_reads(&reads, &ClusterConfig::default());
        assert_eq!(c.clusters.len(), 1);
        assert_eq!(c.clusters[0], vec![0, 1, 2]);
    }

    #[test]
    fn distinct_strands_separate() {
        let mut rng = rng_for(2, "cl2");
        let reads: Vec<DnaSequence> = (0..5).map(|_| random_strand(80, &mut rng)).collect();
        let c = cluster_reads(&reads, &ClusterConfig::default());
        assert_eq!(c.clusters.len(), 5);
    }

    #[test]
    fn noisy_copies_cluster_together() {
        let mut rng = rng_for(3, "cl3");
        let ch = ChannelModel::typical();
        let originals: Vec<DnaSequence> = (0..6).map(|_| random_strand(100, &mut rng)).collect();
        let mut reads = Vec::new();
        let mut truth = Vec::new();
        for (oi, o) in originals.iter().enumerate() {
            for _ in 0..5 {
                reads.push(ch.corrupt(o, &mut rng));
                truth.push(oi);
            }
        }
        let c = cluster_reads(&reads, &ClusterConfig::default());
        assert_eq!(c.clusters.len(), 6, "six oligos, six clusters");
        // Every cluster must be pure.
        for cluster in &c.clusters {
            let first = truth[cluster[0]];
            assert!(cluster.iter().all(|&r| truth[r] == first));
        }
    }

    #[test]
    fn prefilter_skips_work() {
        let mut rng = rng_for(4, "cl4");
        let reads: Vec<DnaSequence> = (0..20).map(|_| random_strand(100, &mut rng)).collect();
        let c = cluster_reads(&reads, &ClusterConfig::default());
        // Random strands mostly fail the sketch overlap, skipping DP calls.
        assert!(
            c.prefilter_skips > c.distance_calls,
            "skips {} vs calls {}",
            c.prefilter_skips,
            c.distance_calls
        );
    }

    #[test]
    fn consensus_fixes_substitutions() {
        let mut rng = rng_for(5, "cl5");
        let original = random_strand(90, &mut rng);
        let ch = ChannelModel {
            substitution: 0.03,
            insertion: 0.0,
            deletion: 0.0,
            dropout: 0.0,
            mean_coverage: 1.0,
        };
        let reads: Vec<DnaSequence> = (0..9).map(|_| ch.corrupt(&original, &mut rng)).collect();
        let refs: Vec<&DnaSequence> = reads.iter().collect();
        let cons = consensus(&refs);
        assert_eq!(cons, original, "majority vote should cancel substitutions");
    }

    #[test]
    fn consensus_single_read_is_identity() {
        let mut rng = rng_for(6, "cl6");
        let s = random_strand(40, &mut rng);
        assert_eq!(consensus(&[&s]), s);
        assert!(consensus(&[]).is_empty());
    }

    #[test]
    fn consensus_medoid_fallback_on_indels() {
        let mut rng = rng_for(7, "cl7");
        let original = random_strand(60, &mut rng);
        // All reads have distinct lengths -> medoid path.
        let mut reads = Vec::new();
        for k in 1..=3usize {
            let mut b = original.bases().to_vec();
            for _ in 0..k {
                b.remove(rng.gen_range(0..b.len()));
            }
            reads.push(DnaSequence::from_bases(b));
        }
        let refs: Vec<&DnaSequence> = reads.iter().collect();
        let cons = consensus(&refs);
        // Medoid should be the least-mutated read.
        assert_eq!(cons, reads[0]);
    }
}
