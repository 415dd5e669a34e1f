//! The end-to-end DNA storage pipeline of Fig. 6b.
//!
//! encode → synthesise → (noise channel) → sequence → cluster → consensus →
//! decode, with statistics at every stage — the loop the DNAssim framework
//! \[26\] simulates and whose decoding phase motivates the FPGA accelerator.

use crate::alignment::consensus_aligned;
use crate::channel::ChannelModel;
use crate::cluster::{cluster_reads, consensus, ClusterConfig};
use crate::codec::{decode, encode, CodecConfig, DecodeStats};
use crate::sequence::DnaSequence;
use crate::Result;
use f2_core::rng::rng_for;

/// Consensus algorithm used to collapse each read cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConsensusMode {
    /// Length-filtered column voting (fast; substitution-robust).
    ColumnVote,
    /// Draft-anchored alignment voting with the given band
    /// (indel-robust; the production decoder's choice for nanopore-class
    /// channels).
    Aligned {
        /// Alignment band (maximum edits tolerated per read).
        band: usize,
    },
}

/// Configuration of one pipeline run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineConfig {
    /// Codec framing.
    pub codec: CodecConfig,
    /// Channel error model.
    pub channel: ChannelModel,
    /// Clustering parameters.
    pub cluster: ClusterConfig,
    /// Consensus algorithm.
    pub consensus: ConsensusMode,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self {
            codec: CodecConfig::default(),
            channel: ChannelModel::typical(),
            cluster: ClusterConfig::default(),
            consensus: ConsensusMode::ColumnVote,
        }
    }
}

/// Statistics of one end-to-end run.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineReport {
    /// Oligos synthesised.
    pub strands_written: usize,
    /// Raw reads returned by the sequencer.
    pub reads: usize,
    /// Clusters formed.
    pub clusters: usize,
    /// Codec-level decode statistics.
    pub decode: DecodeStats,
    /// Whether the payload was recovered bit-exactly.
    pub payload_recovered: bool,
    /// Edit-distance threshold tests spent in clustering (the accelerator's
    /// target workload).
    pub distance_calls: u64,
}

/// Runs the full pipeline on `payload` with deterministic noise derived from
/// `seed`. Returns the recovered payload (if decodable) and the report.
///
/// # Errors
///
/// Propagates configuration errors; decode failures are reported in the
/// `PipelineReport` (with `payload_recovered = false`), not as errors.
pub fn run_pipeline(
    payload: &[u8],
    cfg: &PipelineConfig,
    seed: u64,
) -> Result<(Option<Vec<u8>>, PipelineReport)> {
    cfg.channel.validate()?;
    let archive = encode(payload, cfg.codec)?;
    let mut rng = rng_for(seed, "dna-pipeline");
    let reads = cfg.channel.sequence_pool(&archive.strands, &mut rng);

    let clustering = cluster_reads(&reads, &cfg.cluster);
    let consensi: Vec<DnaSequence> = clustering
        .clusters
        .iter()
        .map(|cluster| {
            let members: Vec<&DnaSequence> = cluster.iter().map(|&i| &reads[i]).collect();
            match cfg.consensus {
                ConsensusMode::ColumnVote => consensus(&members),
                ConsensusMode::Aligned { band } => consensus_aligned(&members, band),
            }
        })
        .collect();

    let decode_result = decode(&consensi, archive.payload_len, cfg.codec);
    let (recovered, decode_stats) = match decode_result {
        Ok((data, stats)) => {
            let ok = data == payload;
            (if ok { Some(data) } else { None }, stats)
        }
        Err(_) => (None, DecodeStats::default()),
    };

    let report = PipelineReport {
        strands_written: archive.strands.len(),
        reads: reads.len(),
        clusters: clustering.clusters.len(),
        decode: decode_stats,
        payload_recovered: recovered.is_some(),
        distance_calls: clustering.distance_calls,
    };
    Ok((recovered, report))
}

#[cfg(test)]
mod tests {
    use super::*;

    const PAYLOAD: &[u8] =
        b"DNA can endure for thousands of years with minimal power consumption, \
          reaching densities of approximately 100 PB per gram.";

    #[test]
    fn round_trip_under_typical_noise() {
        let cfg = PipelineConfig::default();
        let (recovered, report) = run_pipeline(PAYLOAD, &cfg, 42).expect("valid config");
        assert!(
            report.payload_recovered,
            "typical channel should round-trip: {report:?}"
        );
        assert_eq!(recovered.expect("recovered"), PAYLOAD);
        assert!(report.reads > report.strands_written);
        assert!(report.distance_calls > 0);
    }

    #[test]
    fn noiseless_channel_trivially_recovers() {
        let mut cfg = PipelineConfig::default();
        cfg.channel.substitution = 0.0;
        cfg.channel.insertion = 0.0;
        cfg.channel.deletion = 0.0;
        cfg.channel.dropout = 0.0;
        let (_, report) = run_pipeline(PAYLOAD, &cfg, 1).expect("valid config");
        assert!(report.payload_recovered);
        assert_eq!(report.decode.parity_recovered, 0);
        // Clusters should match written strands exactly.
        assert_eq!(report.clusters, report.strands_written);
    }

    #[test]
    fn extreme_noise_fails_gracefully() {
        let mut cfg = PipelineConfig::default();
        cfg.channel.substitution = 0.4;
        cfg.channel.insertion = 0.1;
        cfg.channel.deletion = 0.1;
        let (recovered, report) = run_pipeline(PAYLOAD, &cfg, 2).expect("valid config");
        assert!(!report.payload_recovered);
        assert!(recovered.is_none());
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = PipelineConfig::default();
        let a = run_pipeline(PAYLOAD, &cfg, 7).expect("valid config");
        let b = run_pipeline(PAYLOAD, &cfg, 7).expect("valid config");
        assert_eq!(a.1, b.1);
    }

    #[test]
    fn aligned_consensus_survives_harsher_channels() {
        // Indel-heavy channel where column voting starts failing.
        let mut cfg = PipelineConfig {
            channel: ChannelModel {
                substitution: 0.01,
                insertion: 0.012,
                deletion: 0.012,
                dropout: 0.0,
                mean_coverage: 14.0,
            },
            ..PipelineConfig::default()
        };
        let mut column_ok = 0;
        let mut aligned_ok = 0;
        for seed in 0..6 {
            cfg.consensus = ConsensusMode::ColumnVote;
            if run_pipeline(PAYLOAD, &cfg, seed)
                .expect("valid config")
                .1
                .payload_recovered
            {
                column_ok += 1;
            }
            cfg.consensus = ConsensusMode::Aligned { band: 16 };
            if run_pipeline(PAYLOAD, &cfg, seed)
                .expect("valid config")
                .1
                .payload_recovered
            {
                aligned_ok += 1;
            }
        }
        assert!(
            aligned_ok >= column_ok,
            "aligned ({aligned_ok}/6) must not lose to column vote ({column_ok}/6)"
        );
        assert!(
            aligned_ok >= 5,
            "aligned consensus should recover: {aligned_ok}/6"
        );
    }

    #[test]
    fn dropout_is_absorbed_by_parity() {
        let mut cfg = PipelineConfig::default();
        cfg.channel.substitution = 0.0;
        cfg.channel.insertion = 0.0;
        cfg.channel.deletion = 0.0;
        cfg.channel.dropout = 0.04; // a few strands vanish
        cfg.channel.mean_coverage = 6.0;
        let mut recovered_runs = 0;
        for seed in 0..5 {
            let (_, report) = run_pipeline(PAYLOAD, &cfg, seed).expect("valid config");
            if report.payload_recovered {
                recovered_runs += 1;
            }
        }
        assert!(
            recovered_runs >= 4,
            "parity should absorb light dropout ({recovered_runs}/5 runs recovered)"
        );
    }
}

f2_core::impl_to_json!(PipelineReport {
    strands_written,
    reads,
    clusters,
    decode,
    payload_recovered,
    distance_calls,
});
