//! Levenshtein (edit) distance kernels with cell-update accounting.
//!
//! §VI: "The similarity index is determined using the edit distance, also
//! known as the Levenshtein distance … there is a surge of interest in FPGA
//! accelerators for edit distance." Three kernels are provided, matching the
//! algorithm families the paper's related work spans:
//!
//! * [`levenshtein_dp`] — the exact O(n·m) dynamic program (the functional
//!   reference and the unit of "cell updates" that CUPS counts).
//! * [`levenshtein_banded`] — Ukkonen's band-limited variant, the
//!   "approximated distance technique" trade-off (\[33\], \[34\]).
//! * [`levenshtein_myers`] — Myers' bit-parallel algorithm (blocked for
//!   arbitrary pattern lengths), the formulation the GPU work \[29\] and the
//!   FPGA accelerator \[35\] parallelise.
//!
//! [`levenshtein_within`] is the threshold test the decoding pipeline asks:
//! the banded kernel's answer, computed bit-parallel.

use crate::sequence::DnaSequence;

/// Outcome of one distance computation, with work accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DistanceResult {
    /// The edit distance (`None` if a banded search exceeded its band).
    pub distance: Option<usize>,
    /// DP cell updates performed (the CUPS unit).
    pub cell_updates: u64,
}

/// Exact Levenshtein distance by full dynamic programming.
pub fn levenshtein_dp(a: &DnaSequence, b: &DnaSequence) -> DistanceResult {
    let (a, b) = (a.bases(), b.bases());
    let (n, m) = (a.len(), b.len());
    if n == 0 || m == 0 {
        return DistanceResult {
            distance: Some(n.max(m)),
            cell_updates: 0,
        };
    }
    let mut prev: Vec<usize> = (0..=m).collect();
    let mut curr = vec![0usize; m + 1];
    for i in 1..=n {
        curr[0] = i;
        for j in 1..=m {
            let cost = usize::from(a[i - 1] != b[j - 1]);
            curr[j] = (prev[j] + 1).min(curr[j - 1] + 1).min(prev[j - 1] + cost);
        }
        std::mem::swap(&mut prev, &mut curr);
    }
    DistanceResult {
        distance: Some(prev[m]),
        cell_updates: (n * m) as u64,
    }
}

/// Ukkonen band-limited Levenshtein: exact when the true distance ≤ `band`,
/// otherwise returns `None` having done only O(n·band) work.
pub fn levenshtein_banded(a: &DnaSequence, b: &DnaSequence, band: usize) -> DistanceResult {
    let (av, bv) = (a.bases(), b.bases());
    let (n, m) = (av.len(), bv.len());
    if n.abs_diff(m) > band {
        return DistanceResult {
            distance: None,
            cell_updates: 0,
        };
    }
    if n == 0 || m == 0 {
        return DistanceResult {
            distance: Some(n.max(m)),
            cell_updates: 0,
        };
    }
    const BIG: usize = usize::MAX / 2;
    let mut prev = vec![BIG; m + 1];
    let mut curr = vec![BIG; m + 1];
    for (j, p) in prev.iter_mut().enumerate().take(band.min(m) + 1) {
        *p = j;
    }
    let mut updates = 0u64;
    for i in 1..=n {
        let lo = i.saturating_sub(band).max(1);
        let hi = (i + band).min(m);
        // Row i reads cells lo-1..=hi of both rows. Outside row i-1's band
        // those are curr[lo-1], left over from row i-2, and prev[hi] when
        // the band grows; resetting only them keeps the call O(n·band).
        curr[lo - 1] = if lo == 1 { i } else { BIG };
        if hi == i + band {
            prev[hi] = BIG;
        }
        for j in lo..=hi {
            let cost = usize::from(av[i - 1] != bv[j - 1]);
            let mut best = prev[j - 1] + cost;
            if prev[j] < BIG {
                best = best.min(prev[j] + 1);
            }
            if curr[j - 1] < BIG {
                best = best.min(curr[j - 1] + 1);
            }
            curr[j] = best;
            updates += 1;
        }
        std::mem::swap(&mut prev, &mut curr);
    }
    let d = prev[m];
    DistanceResult {
        distance: if d <= band { Some(d) } else { None },
        cell_updates: updates,
    }
}

/// Exact edit distance if it is at most `k`, else `None`: the answer of
/// `levenshtein_banded(a, b, k).distance`, computed by the length-gap check
/// (a pair whose lengths differ by more than `k` needs more than `k` edits)
/// and [`levenshtein_myers`].
pub fn levenshtein_within(a: &DnaSequence, b: &DnaSequence, k: usize) -> Option<usize> {
    if a.len().abs_diff(b.len()) > k {
        return None;
    }
    levenshtein_myers(a, b).distance.filter(|&d| d <= k)
}

/// Myers bit-parallel Levenshtein (blocked variant, Hyyrö 2003), exact for
/// arbitrary lengths. Processes 64 pattern rows per machine word per text
/// column — the parallelism the FPGA accelerator implements in silicon.
pub fn levenshtein_myers(a: &DnaSequence, b: &DnaSequence) -> DistanceResult {
    let pattern = a.bases();
    let text = b.bases();
    let n = pattern.len();
    let m = text.len();
    if n == 0 || m == 0 {
        return DistanceResult {
            distance: Some(n.max(m)),
            cell_updates: 0,
        };
    }
    let words = n.div_ceil(64);
    // Pattern-match bitmasks per base per word.
    let mut peq = vec![[0u64; 4]; words];
    for (i, base) in pattern.iter().enumerate() {
        peq[i / 64][base.to_bits() as usize] |= 1u64 << (i % 64);
    }
    let mut vp = vec![u64::MAX; words];
    let mut vn = vec![0u64; words];
    // Bit of the score row (n-1) inside the last word.
    let last_bit = 1u64 << ((n - 1) % 64);
    let mut score = n as i64;

    // Hyyrö's block advance: horizontal delta `hin` ∈ {-1, 0, +1} enters at
    // the block's low boundary, `hout` leaves at its high boundary.
    for tb in text {
        let eq_idx = tb.to_bits() as usize;
        let mut hin: i64 = 1; // row-0 boundary of the DP matrix is +1 per column
        for w in 0..words {
            let mut eq = peq[w][eq_idx];
            if hin < 0 {
                eq |= 1;
            }
            let pv = vp[w];
            let mv = vn[w];
            let xv = eq | mv;
            let xh = (((eq & pv).wrapping_add(pv)) ^ pv) | eq;
            let mut ph = mv | !(xh | pv);
            let mut mh = pv & xh;
            let high = if w == words - 1 { last_bit } else { 1u64 << 63 };
            let mut hout = 0i64;
            if ph & high != 0 {
                hout = 1;
            } else if mh & high != 0 {
                hout = -1;
            }
            ph <<= 1;
            mh <<= 1;
            if hin > 0 {
                ph |= 1;
            } else if hin < 0 {
                mh |= 1;
            }
            vp[w] = mh | !(xv | ph);
            vn[w] = ph & xv;
            hin = hout;
        }
        score += hin;
    }
    DistanceResult {
        distance: Some(score.max(0) as usize),
        cell_updates: (n * m) as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sequence::DnaSequence;
    use f2_core::rng::rng_for;
    use f2_core::rng::Rng;

    fn seq(s: &str) -> DnaSequence {
        DnaSequence::parse(s).expect("valid test sequence")
    }

    fn random_seq(len: usize, rng: &mut impl Rng) -> DnaSequence {
        use crate::sequence::DnaBase;
        DnaSequence::from_bases((0..len).map(|_| DnaBase::from_bits(rng.gen())).collect())
    }

    #[test]
    fn dp_known_distances() {
        assert_eq!(levenshtein_dp(&seq("ACGT"), &seq("ACGT")).distance, Some(0));
        assert_eq!(levenshtein_dp(&seq("ACGT"), &seq("AGGT")).distance, Some(1));
        assert_eq!(levenshtein_dp(&seq("ACGT"), &seq("CGT")).distance, Some(1));
        assert_eq!(levenshtein_dp(&seq("ACGT"), &seq("TGCA")).distance, Some(4));
        assert_eq!(levenshtein_dp(&seq(""), &seq("ACG")).distance, Some(3));
        assert_eq!(levenshtein_dp(&seq("AC"), &seq("")).distance, Some(2));
    }

    #[test]
    fn dp_cell_updates() {
        let r = levenshtein_dp(&seq("ACGT"), &seq("ACG"));
        assert_eq!(r.cell_updates, 12);
    }

    #[test]
    fn myers_matches_dp_on_random_pairs() {
        let mut rng = rng_for(1, "myers");
        for _ in 0..50 {
            let la = rng.gen_range(1..200usize);
            let lb = rng.gen_range(1..200usize);
            let a = random_seq(la, &mut rng);
            let b = random_seq(lb, &mut rng);
            let dp = levenshtein_dp(&a, &b).distance;
            let my = levenshtein_myers(&a, &b).distance;
            assert_eq!(dp, my, "mismatch for lengths {la}/{lb}");
        }
    }

    #[test]
    fn myers_multiword_patterns() {
        let mut rng = rng_for(2, "myers-long");
        for len in [64, 65, 128, 129, 200] {
            let a = random_seq(len, &mut rng);
            let b = random_seq(len + 7, &mut rng);
            assert_eq!(
                levenshtein_dp(&a, &b).distance,
                levenshtein_myers(&a, &b).distance,
                "length {len}"
            );
        }
    }

    #[test]
    fn banded_exact_within_band() {
        let mut rng = rng_for(3, "banded");
        for _ in 0..30 {
            let a = random_seq(60, &mut rng);
            // Mutate a few bases to stay near.
            let mut b = a.clone();
            for _ in 0..3 {
                let i = rng.gen_range(0..b.len());
                b.bases_mut()[i] = crate::sequence::DnaBase::from_bits(rng.gen());
            }
            let dp = levenshtein_dp(&a, &b).distance.expect("exact");
            let banded = levenshtein_banded(&a, &b, 8).distance;
            assert_eq!(banded, Some(dp));
        }
    }

    #[test]
    fn threshold_tests_exact_on_all_short_pairs() {
        // Every pair over two bases up to six long: few enough to enumerate,
        // long enough that the band's edges and the length gap both matter.
        let seqs: Vec<DnaSequence> = (0..=6usize)
            .flat_map(|len| {
                (0..1u8 << len).map(move |bits| {
                    DnaSequence::from_bases(
                        (0..len)
                            .map(|i| crate::sequence::DnaBase::from_bits(bits >> i & 1))
                            .collect(),
                    )
                })
            })
            .collect();
        for a in &seqs {
            for b in &seqs {
                let d = levenshtein_dp(a, b).distance.expect("exact");
                for k in 0..5 {
                    let expected = Some(d).filter(|&d| d <= k);
                    assert_eq!(
                        levenshtein_banded(a, b, k).distance,
                        expected,
                        "{a} {b} {k}"
                    );
                    assert_eq!(levenshtein_within(a, b, k), expected, "{a} {b} {k}");
                }
            }
        }
    }

    #[test]
    fn banded_rejects_far_pairs_cheaply() {
        let mut rng = rng_for(4, "banded-far");
        let a = random_seq(100, &mut rng);
        let b = random_seq(100, &mut rng);
        let full = levenshtein_dp(&a, &b);
        let banded = levenshtein_banded(&a, &b, 5);
        // Random 100-mers differ by far more than 5.
        assert_eq!(banded.distance, None);
        assert!(banded.cell_updates < full.cell_updates / 3);
    }

    #[test]
    fn banded_length_gap_shortcut() {
        let a = seq("ACGTACGTACGT");
        let b = seq("AC");
        let r = levenshtein_banded(&a, &b, 3);
        assert_eq!(r.distance, None);
        assert_eq!(r.cell_updates, 0);
    }

    #[test]
    fn distance_is_a_metric() {
        let mut rng = rng_for(5, "metric");
        let seqs: Vec<DnaSequence> = (0..6).map(|_| random_seq(30, &mut rng)).collect();
        let d =
            |x: &DnaSequence, y: &DnaSequence| levenshtein_dp(x, y).distance.expect("exact") as i64;
        for x in &seqs {
            assert_eq!(d(x, x), 0);
            for y in &seqs {
                assert_eq!(d(x, y), d(y, x), "symmetry");
                for z in &seqs {
                    assert!(d(x, z) <= d(x, y) + d(y, z), "triangle inequality");
                }
            }
        }
    }

    #[test]
    fn single_indel_detected() {
        let a = seq("ACGTACGT");
        let mut b_bases = a.bases().to_vec();
        b_bases.insert(3, crate::sequence::DnaBase::T);
        let b = DnaSequence::from_bases(b_bases);
        assert_eq!(levenshtein_dp(&a, &b).distance, Some(1));
        assert_eq!(levenshtein_myers(&a, &b).distance, Some(1));
    }
}
