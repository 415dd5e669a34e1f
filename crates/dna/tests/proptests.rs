//! Property-based tests of DNA-storage invariants.

use f2_core::ptest::Gen;
use f2_core::rng::rng_for;
use f2_dna::alignment::align_banded;
use f2_dna::channel::ChannelModel;
use f2_dna::cluster::{cluster_reads, ClusterConfig, Clustering};
use f2_dna::codec::{decode, encode, CodecConfig};
use f2_dna::levenshtein::{
    levenshtein_banded, levenshtein_dp, levenshtein_myers, levenshtein_within,
};
use f2_dna::sequence::{DnaBase, DnaSequence};

fn gen_sequence(g: &mut Gen, max_len: usize) -> DnaSequence {
    let bases = g.vec(0..max_len, |g| DnaBase::from_bits(g.u8() % 4));
    DnaSequence::from_bases(bases)
}

/// A sequence of up to 200 bases (one to four Myers words) and a partner
/// that is either independent of it or a copy with `0..2k` random edits, so
/// that distances fall on both sides of a threshold `k`.
fn gen_pair(g: &mut Gen, k: usize) -> (DnaSequence, DnaSequence) {
    let a = gen_sequence(g, 201);
    if g.usize_in(0..2) == 0 {
        let b = gen_sequence(g, 201);
        return (a, b);
    }
    let mut bases = a.bases().to_vec();
    for _ in 0..g.usize_in(0..2 * k) {
        let base = DnaBase::from_bits(g.u8() % 4);
        let pos = g.usize_in(0..bases.len() + 1);
        match g.u8() % 3 {
            0 if pos < bases.len() => bases[pos] = base,
            1 if pos < bases.len() => {
                bases.remove(pos);
            }
            _ => bases.insert(pos, base),
        }
    }
    (a, DnaSequence::from_bases(bases))
}

/// Reference for [`cluster_reads`]: the same k-mer prefilter and greedy
/// first-fit pass, with the banded kernel as the distance test.
fn reference_clustering(reads: &[DnaSequence], cfg: &ClusterConfig) -> Clustering {
    fn sketch(seq: &DnaSequence, k: usize) -> [u64; 4] {
        let mut s = [0u64; 4];
        for win in seq.bases().windows(k) {
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
    let overlap_millis = |a: [u64; 4], b: [u64; 4]| {
        let inter: u32 = (0..4).map(|i| (a[i] & b[i]).count_ones()).sum();
        let union: u32 = (0..4).map(|i| (a[i] | b[i]).count_ones()).sum();
        inter * 1000 / union.max(1)
    };
    let mut out = Clustering {
        clusters: Vec::new(),
        distance_calls: 0,
        prefilter_skips: 0,
    };
    let mut reps: Vec<(usize, [u64; 4])> = Vec::new();
    for (i, read) in reads.iter().enumerate() {
        let sk = sketch(read, cfg.kmer);
        let mut home = None;
        for (c, &(rep, rep_sk)) in reps.iter().enumerate() {
            if overlap_millis(sk, rep_sk) < cfg.prefilter_threshold_millis {
                out.prefilter_skips += 1;
                continue;
            }
            out.distance_calls += 1;
            if levenshtein_banded(read, &reads[rep], cfg.distance_threshold)
                .distance
                .is_some()
            {
                home = Some(c);
                break;
            }
        }
        match home {
            Some(c) => out.clusters[c].push(i),
            None => {
                out.clusters.push(vec![i]);
                reps.push((i, sk));
            }
        }
    }
    out
}

f2_core::ptest! {
    /// Bytes → bases → bytes is the identity.
    fn sequence_codec_round_trip(g) {
        let payload = g.bytes(0..200);
        let seq = DnaSequence::from_bytes(&payload);
        assert_eq!(seq.to_bytes(), payload);
    }

    /// Myers bit-parallel distance equals the DP reference for any pair.
    fn myers_equals_dp(g) {
        let a = gen_sequence(g, 180);
        let b = gen_sequence(g, 180);
        assert_eq!(
            levenshtein_myers(&a, &b).distance,
            levenshtein_dp(&a, &b).distance
        );
    }

    /// Banded distance is exact whenever it returns a value.
    fn banded_is_exact_when_it_answers(g) {
        let a = gen_sequence(g, 120);
        let b = gen_sequence(g, 120);
        let band = g.usize_in(1..24);
        if let Some(d) = levenshtein_banded(&a, &b, band).distance {
            assert_eq!(Some(d), levenshtein_dp(&a, &b).distance);
            assert!(d <= band);
        }
    }

    /// The bit-parallel threshold test answers exactly as the banded kernel
    /// and the DP reference, on independent pairs and on near copies whose
    /// distance straddles `k`.
    fn within_equals_banded(g) {
        let k = g.usize_in(1..24);
        let (a, b) = gen_pair(g, k);
        let within = levenshtein_within(&a, &b, k);
        assert_eq!(within, levenshtein_banded(&a, &b, k).distance);
        assert_eq!(within, levenshtein_dp(&a, &b).distance.filter(|&d| d <= k));
    }

    /// The banded kernel updates exactly the cells with |i − j| ≤ band —
    /// Σ(hi − lo + 1) over its rows, the `cell_updates_banded_*` KPI — and
    /// none when the length gap alone rules the pair out.
    fn banded_updates_only_its_band(g) {
        let band = g.usize_in(0..24);
        let (a, b) = gen_pair(g, band.max(1));
        let (n, m) = (a.len(), b.len());
        let cells = if n.abs_diff(m) > band {
            0
        } else {
            (1..=n)
                .map(|i| (1..=m).filter(|&j| i.abs_diff(j) <= band).count() as u64)
                .sum()
        };
        assert_eq!(levenshtein_banded(&a, &b, band).cell_updates, cells);
    }

    /// Clustering with the bit-parallel test reproduces the banded greedy
    /// reference — clusters, distance calls and prefilter skips — on
    /// encoded archives read through channels at several substitution rates
    /// and through the harsh nanopore-class profile.
    fn cluster_reads_matches_banded_reference(g) {
        let channel = match g.usize_in(0..4) {
            3 => ChannelModel::harsh(),
            r => ChannelModel {
                substitution: [0.004, 0.02, 0.06][r],
                ..ChannelModel::typical()
            },
        };
        let payload = g.bytes(1..160);
        let codec = CodecConfig { data_per_strand: g.usize_in(8..40), group_size: 8 };
        let archive = encode(&payload, codec).expect("encodable");
        let mut rng = rng_for(g.u64(), "cluster-pool");
        let reads = channel.sequence_pool(&archive.strands, &mut rng);
        let cfg = ClusterConfig {
            distance_threshold: g.usize_in(1..24),
            ..ClusterConfig::default()
        };
        assert_eq!(cluster_reads(&reads, &cfg), reference_clustering(&reads, &cfg));
    }

    /// Alignment cost equals edit distance whenever the band admits it, and
    /// the op list's geometry is consistent with both sequences.
    fn alignment_consistent(g) {
        let a = gen_sequence(g, 80);
        let b = gen_sequence(g, 80);
        let d = levenshtein_dp(&a, &b).distance.expect("exact");
        if let Some(al) = align_banded(&a, &b, 30) {
            assert_eq!(al.cost, d);
            let draft_len = al.ops.iter()
                .filter(|op| !matches!(op, f2_dna::alignment::AlignOp::Insert)).count();
            let read_len = al.ops.iter()
                .filter(|op| !matches!(op, f2_dna::alignment::AlignOp::Delete)).count();
            assert_eq!(draft_len, a.len());
            assert_eq!(read_len, b.len());
        } else {
            assert!(d > 30);
        }
    }

    /// Archive encode/decode round-trips for arbitrary payloads and framing.
    fn archive_round_trip(g) {
        let payload = g.bytes(0..300);
        let dps = g.usize_in(4..32);
        let group = g.usize_in(1..9);
        let cfg = CodecConfig { data_per_strand: dps, group_size: group };
        let archive = encode(&payload, cfg).expect("encodable");
        let (decoded, stats) = decode(&archive.strands, archive.payload_len, cfg)
            .expect("decodable");
        assert_eq!(decoded, payload);
        assert_eq!(stats.lost, 0);
    }

    /// Any single dropped strand is recovered by parity.
    fn single_erasure_repaired(g) {
        let payload = g.bytes(32..200);
        let drop_idx = g.usize_in(0..8);
        let cfg = CodecConfig { data_per_strand: 16, group_size: 4 };
        let archive = encode(&payload, cfg).expect("encodable");
        let n_data = payload.len().div_ceil(16);
        let mut strands = archive.strands.clone();
        strands.remove(drop_idx % n_data);
        let (decoded, stats) = decode(&strands, archive.payload_len, cfg)
            .expect("repairable");
        assert_eq!(decoded, payload);
        assert_eq!(stats.parity_recovered, 1);
    }

    /// Reverse complement is an involution that preserves GC content.
    fn reverse_complement_involution(g) {
        let s = gen_sequence(g, 100);
        let rc = s.reverse_complement();
        assert_eq!(rc.reverse_complement(), s.clone());
        assert!((rc.gc_content() - s.gc_content()).abs() < 1e-12);
    }
}
