//! Sparse-dataflow design-space explorer: analytical SpMV/SpGEMM cost
//! models per dataflow, in the style of spada-sim.
//!
//! §III targets HLS-generated accelerators for irregular, memory-bound
//! sparse kernels. For SpGEMM (`C = A·B`) the dominant design lever is the
//! *dataflow* — the loop order that decides what gets reused on chip:
//!
//! * [`Dataflow::Inner`] — inner-product: each output `C(i,j)` is computed
//!   by intersecting row `A(i,:)` with column `B(:,j)`. Merge-heavy compute
//!   but near-zero intermediate state, so it tolerates tiny buffers.
//! * [`Dataflow::Outer`] — outer-product: every input is read exactly once
//!   (`A(:,k) ⊗ B(k,:)`), at the price of materialising and merging all
//!   partial products — which spill once they outgrow the buffer.
//! * [`Dataflow::RowWise`] — multi-row Gustavson: rows of `C` are
//!   accumulated from scaled rows of `B` in a sparse accumulator; B-row
//!   reuse is captured by a block-level cache, and an accumulator that
//!   outgrows the buffer forces column-partitioned multi-pass execution.
//! * [`Policy::Adaptive`] — picks a dataflow *per row-block* from the
//!   block's exact density statistics (the "Spada" idea), paying
//!   [`SpConfig::switch_penalty`] cycles whenever consecutive blocks choose
//!   differently. The schedule is the cheapest path of a small dynamic
//!   program over the three dataflow states, so by construction it never
//!   costs more cycles than the best fixed dataflow.
//!
//! All models are exact-counting and analytical: a symbolic pass over the
//! CSR structure counts flops, output nonzeros, reuse and working sets per
//! row-block, and converts them to cycles, DRAM word traffic and on-chip
//! buffer occupancy under a tiling × buffer-size configuration. No RNG is
//! involved, so every cost is bit-identical at any thread count.

use crate::error::HlsError;
use crate::Result;
use f2_core::workload::sparse::SparseMatrix;

/// The fixed SpGEMM/SpMV dataflows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dataflow {
    /// Inner-product (row × column intersection).
    Inner,
    /// Outer-product (column × row partial products, then merge).
    Outer,
    /// Multi-row Gustavson (row-wise sparse accumulator).
    RowWise,
}

impl Dataflow {
    /// All fixed dataflows, in presentation order.
    pub const ALL: [Dataflow; 3] = [Dataflow::Inner, Dataflow::Outer, Dataflow::RowWise];

    /// The stable name used in scenario params and campaign manifests.
    pub fn name(&self) -> &'static str {
        match self {
            Dataflow::Inner => "inner",
            Dataflow::Outer => "outer",
            Dataflow::RowWise => "row",
        }
    }
}

/// A dataflow selection policy: one fixed dataflow for the whole matrix, or
/// the adaptive per-row-block choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// Run every row-block under one dataflow.
    Fixed(Dataflow),
    /// Pick the cheapest dataflow per row-block, paying
    /// [`SpConfig::switch_penalty`] on every change.
    Adaptive,
}

impl Policy {
    /// Parses a policy name (`inner` / `outer` / `row` / `adaptive`).
    ///
    /// # Errors
    ///
    /// Returns [`HlsError::InvalidConfig`] on an unknown name.
    pub fn parse(name: &str) -> Result<Self> {
        if name == "adaptive" {
            return Ok(Policy::Adaptive);
        }
        Dataflow::ALL
            .into_iter()
            .find(|d| d.name() == name)
            .map(Policy::Fixed)
            .ok_or_else(|| {
                HlsError::InvalidConfig(format!(
                    "unknown dataflow `{name}`; expected inner|outer|row|adaptive"
                ))
            })
    }

    /// The stable name (inverse of [`Policy::parse`]).
    pub fn name(&self) -> &'static str {
        match self {
            Policy::Fixed(d) => d.name(),
            Policy::Adaptive => "adaptive",
        }
    }
}

/// Tiling × buffer configuration of the modelled accelerator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpConfig {
    /// Rows of `A` (and `C`) per row-block.
    pub tile_rows: usize,
    /// On-chip buffer capacity in words (one word holds one index or one
    /// value).
    pub buffer_words: usize,
    /// DRAM cost per word transferred, in cycles (inverse bandwidth).
    pub dram_cycles_per_word: u32,
    /// Cycles lost when the adaptive policy switches dataflows between
    /// consecutive row-blocks (datapath reconfiguration + drain).
    pub switch_penalty: u32,
}

impl Default for SpConfig {
    fn default() -> Self {
        Self {
            tile_rows: 32,
            buffer_words: 1024,
            dram_cycles_per_word: 4,
            switch_penalty: 64,
        }
    }
}

impl SpConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`HlsError::InvalidConfig`] when the tile, buffer, or DRAM
    /// cost is zero.
    pub fn validate(&self) -> Result<()> {
        if self.tile_rows == 0 {
            return Err(HlsError::InvalidConfig(
                "tile_rows must be positive".to_string(),
            ));
        }
        if self.buffer_words == 0 {
            return Err(HlsError::InvalidConfig(
                "buffer_words must be positive".to_string(),
            ));
        }
        if self.dram_cycles_per_word == 0 {
            return Err(HlsError::InvalidConfig(
                "dram_cycles_per_word must be positive".to_string(),
            ));
        }
        Ok(())
    }
}

/// Modelled execution cost of one kernel under one policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostReport {
    /// Total cycles (compute + DRAM traffic + switch overhead).
    pub cycles: u64,
    /// Datapath cycles (MACs, merges, accumulator updates).
    pub compute_cycles: u64,
    /// DRAM words moved (inputs, outputs, spills, refetches).
    pub dram_words: u64,
    /// Peak on-chip buffer occupancy in words (never above the capacity).
    pub peak_buffer_words: u64,
    /// Row-blocks processed.
    pub blocks: u64,
    /// Dataflow switches paid (always 0 for fixed policies).
    pub switches: u64,
    /// Blocks executed per fixed dataflow, indexed like [`Dataflow::ALL`].
    pub selections: [u64; 3],
}

/// Per-block cost of one dataflow before conversion to cycles.
#[derive(Debug, Clone, Copy)]
struct BlockCost {
    compute: u64,
    traffic: u64,
    occupancy: u64,
}

impl BlockCost {
    fn cycles(&self, dram_cycles_per_word: u32) -> u64 {
        self.compute + self.traffic * u64::from(dram_cycles_per_word)
    }
}

/// Exact per-block structure statistics from the symbolic pass.
struct BlockStats {
    /// Words of `A` streamed: `2·nnz + row_ptr` entries.
    a_words: u64,
    /// Multiply-accumulate count `Σ_i Σ_{k∈A_i} nnz(B_k)`.
    flops: u64,
    /// Output nonzeros of the block's `C` rows.
    out_nnz: u64,
    /// Largest single-row output (sizes the Gustavson accumulator).
    max_row_out_nnz: u64,
    /// Words of the distinct `B` rows the block references.
    distinct_b_words: u64,
    /// `Σ` over distinct output columns of `2·colnnz(B, j)` (inner-product
    /// B-column traffic when `Bᵀ` fits on chip).
    distinct_bcol_words: u64,
    /// `Σ` over every `(i, j ∈ C_i)` pair of `2·colnnz(B, j)` (inner-product
    /// B-column traffic when it does not).
    pair_bcol_words: u64,
    /// Inner-product merge work `Σ_i Σ_{j∈C_i} (nnz(A_i) + colnnz(B, j))`.
    merge_cost: u64,
}

fn rowwise_cost(s: &BlockStats, buffer: u64) -> BlockCost {
    let acc_words = 2 * s.max_row_out_nnz;
    // Accumulator overflow forces column-partitioned multi-pass execution:
    // A (and B) are re-streamed once per pass.
    let passes = if acc_words == 0 {
        1
    } else {
        acc_words.div_ceil(buffer)
    };
    let usable = buffer.saturating_sub(acc_words);
    let b_traffic = if acc_words <= buffer && s.distinct_b_words <= usable {
        s.distinct_b_words
    } else {
        2 * s.flops // every (i, k) use refetches B row k
    };
    BlockCost {
        compute: s.flops + s.out_nnz,
        traffic: passes * (s.a_words + b_traffic) + 2 * s.out_nnz,
        occupancy: (s.distinct_b_words + acc_words).min(buffer),
    }
}

fn outer_cost(s: &BlockStats, buffer: u64) -> BlockCost {
    let partial_words = 2 * s.flops;
    // Partial products beyond the buffer are written out and read back.
    let spill = 2 * partial_words.saturating_sub(buffer);
    BlockCost {
        compute: 2 * s.flops + s.out_nnz,
        traffic: s.a_words + s.distinct_b_words + 2 * s.out_nnz + spill,
        occupancy: partial_words.min(buffer),
    }
}

fn inner_cost(s: &BlockStats, buffer: u64, bt_words: u64) -> BlockCost {
    // With B^T resident on chip each referenced column is fetched once per
    // block; otherwise every (i, j) intersection refetches it.
    let b_traffic = if bt_words <= buffer {
        s.distinct_bcol_words
    } else {
        s.pair_bcol_words
    };
    BlockCost {
        compute: s.merge_cost,
        traffic: s.a_words + b_traffic + 2 * s.out_nnz,
        occupancy: bt_words.min(buffer),
    }
}

/// Runs the symbolic pass over one row-block of `C = A·B`.
#[allow(clippy::too_many_arguments)]
fn spgemm_block_stats(
    a: &SparseMatrix,
    b: &SparseMatrix,
    colnnz_b: &[usize],
    r0: usize,
    r1: usize,
    k_seen: &mut [u32],
    j_seen_row: &mut [u32],
    j_seen_blk: &mut [u32],
    stamp: &mut u32,
) -> BlockStats {
    let mut s = BlockStats {
        a_words: (r1 - r0 + 1) as u64,
        flops: 0,
        out_nnz: 0,
        max_row_out_nnz: 0,
        distinct_b_words: 0,
        distinct_bcol_words: 0,
        pair_bcol_words: 0,
        merge_cost: 0,
    };
    *stamp += 1;
    let blk_stamp = *stamp;
    for i in r0..r1 {
        *stamp += 1;
        let row_stamp = *stamp;
        let nnz_a_i = a.row_nnz(i) as u64;
        s.a_words += 2 * nnz_a_i;
        let mut row_out = 0u64;
        for &k in a.row_cols(i) {
            let bk = b.row_nnz(k) as u64;
            s.flops += bk;
            if k_seen[k] != blk_stamp {
                k_seen[k] = blk_stamp;
                s.distinct_b_words += 2 * bk;
            }
            for &j in b.row_cols(k) {
                if j_seen_row[j] == row_stamp {
                    continue;
                }
                j_seen_row[j] = row_stamp;
                row_out += 1;
                let jw = 2 * colnnz_b[j] as u64;
                s.pair_bcol_words += jw;
                s.merge_cost += nnz_a_i + colnnz_b[j] as u64;
                if j_seen_blk[j] != blk_stamp {
                    j_seen_blk[j] = blk_stamp;
                    s.distinct_bcol_words += jw;
                }
            }
        }
        s.out_nnz += row_out;
        s.max_row_out_nnz = s.max_row_out_nnz.max(row_out);
    }
    s
}

/// Picks the per-block dataflow sequence for [`Policy::Adaptive`]: a
/// Viterbi pass over the three dataflow states where moving between states
/// costs [`SpConfig::switch_penalty`]. Every fixed dataflow is a feasible
/// path of this DP, so the adaptive schedule never costs more cycles than
/// the best fixed one.
fn adaptive_path(block_costs: &[[BlockCost; 3]], cfg: &SpConfig) -> Vec<usize> {
    let d = cfg.dram_cycles_per_word;
    let penalty = u64::from(cfg.switch_penalty);
    let mut dp = [0u64; 3];
    // back[blk][state] = predecessor state on the cheapest path ending here.
    let mut back = vec![[0usize; 3]; block_costs.len()];
    for (blk, costs) in block_costs.iter().enumerate() {
        let mut next = [0u64; 3];
        for state in 0..3 {
            let mut best_prev = 0;
            let mut best = u64::MAX;
            for (prev, &prev_cost) in dp.iter().enumerate() {
                // First block has no predecessor and pays no penalty.
                let hop = if blk == 0 || prev == state {
                    0
                } else {
                    penalty
                };
                let total = prev_cost + hop;
                if total < best {
                    best = total;
                    best_prev = prev;
                }
            }
            next[state] = best + costs[state].cycles(d);
            back[blk][state] = best_prev;
        }
        dp = next;
    }
    let mut state = (0..3).min_by_key(|&s| dp[s]).unwrap_or(0);
    let mut path = vec![0usize; block_costs.len()];
    for blk in (0..block_costs.len()).rev() {
        path[blk] = state;
        state = back[blk][state];
    }
    path
}

/// Accumulates per-block dataflow costs into a [`CostReport`] under
/// `policy`, applying the adaptive DP + switch accounting.
fn fold_blocks(block_costs: &[[BlockCost; 3]], policy: Policy, cfg: &SpConfig) -> CostReport {
    let d = cfg.dram_cycles_per_word;
    let mut report = CostReport {
        cycles: 0,
        compute_cycles: 0,
        dram_words: 0,
        peak_buffer_words: 0,
        blocks: block_costs.len() as u64,
        switches: 0,
        selections: [0; 3],
    };
    let path = match policy {
        Policy::Fixed(df) => {
            let idx = Dataflow::ALL.iter().position(|x| x == &df).expect("fixed");
            vec![idx; block_costs.len()]
        }
        Policy::Adaptive => adaptive_path(block_costs, cfg),
    };
    let mut prev_choice: Option<usize> = None;
    for (costs, &choice) in block_costs.iter().zip(&path) {
        let c = &costs[choice];
        report.selections[choice] += 1;
        report.compute_cycles += c.compute;
        report.dram_words += c.traffic;
        report.cycles += c.cycles(d);
        report.peak_buffer_words = report.peak_buffer_words.max(c.occupancy);
        if let Some(p) = prev_choice {
            if p != choice {
                report.switches += 1;
                report.cycles += u64::from(cfg.switch_penalty);
            }
        }
        prev_choice = Some(choice);
    }
    report
}

/// The symbolic pass of `C = A·B` at one tile size: the exact statistics of
/// every row-block, from which each policy and buffer size is costed
/// without another pass over the structure.
pub struct SpgemmBlocks {
    /// Rows of `A` per row-block the statistics were gathered at.
    tile_rows: usize,
    /// Words of `Bᵀ` (`2·nnz(B)`), the inner-product working set.
    bt_words: u64,
    /// Per-row-block statistics, in row order.
    blocks: Vec<BlockStats>,
}

impl SpgemmBlocks {
    /// Runs the symbolic pass over `C = A·B` in row-blocks of `tile_rows`.
    ///
    /// # Errors
    ///
    /// Returns [`HlsError::InvalidConfig`] when `tile_rows` is zero or on a
    /// dimension mismatch (`a.cols() != b.rows()`).
    pub fn new(a: &SparseMatrix, b: &SparseMatrix, tile_rows: usize) -> Result<Self> {
        if tile_rows == 0 {
            return Err(HlsError::InvalidConfig(
                "tile_rows must be positive".to_string(),
            ));
        }
        if a.cols() != b.rows() {
            return Err(HlsError::InvalidConfig(format!(
                "spgemm shape mismatch: A is {}x{}, B is {}x{}",
                a.rows(),
                a.cols(),
                b.rows(),
                b.cols()
            )));
        }
        let colnnz_b = b.col_nnz();
        let mut k_seen = vec![0u32; b.rows()];
        let mut j_seen_row = vec![0u32; b.cols()];
        let mut j_seen_blk = vec![0u32; b.cols()];
        let mut stamp = 0u32;
        let mut blocks = Vec::new();
        let mut r0 = 0;
        while r0 < a.rows() {
            let r1 = (r0 + tile_rows).min(a.rows());
            blocks.push(spgemm_block_stats(
                a,
                b,
                &colnnz_b,
                r0,
                r1,
                &mut k_seen,
                &mut j_seen_row,
                &mut j_seen_blk,
                &mut stamp,
            ));
            r0 = r1;
        }
        Ok(Self {
            tile_rows,
            bt_words: 2 * b.nnz() as u64,
            blocks,
        })
    }

    /// Models `C = A·B` under `policy` and `cfg`.
    ///
    /// # Errors
    ///
    /// Returns [`HlsError::InvalidConfig`] on an invalid configuration or
    /// when `cfg.tile_rows` is not the tile size of this pass.
    pub fn cost(&self, policy: Policy, cfg: &SpConfig) -> Result<CostReport> {
        cfg.validate()?;
        if cfg.tile_rows != self.tile_rows {
            return Err(HlsError::InvalidConfig(format!(
                "tile_rows {} does not match the symbolic pass's {}",
                cfg.tile_rows, self.tile_rows
            )));
        }
        let buffer = cfg.buffer_words as u64;
        let block_costs: Vec<[BlockCost; 3]> = self
            .blocks
            .iter()
            .map(|s| {
                [
                    inner_cost(s, buffer, self.bt_words),
                    outer_cost(s, buffer),
                    rowwise_cost(s, buffer),
                ]
            })
            .collect();
        Ok(fold_blocks(&block_costs, policy, cfg))
    }
}

/// Models `C = A·B` under `policy` and `cfg`: one symbolic pass and one
/// costing ([`SpgemmBlocks`] reuses the pass across policies and buffers).
///
/// # Errors
///
/// Returns [`HlsError::InvalidConfig`] on an invalid configuration or a
/// dimension mismatch (`a.cols() != b.rows()`).
pub fn spgemm_cost(
    a: &SparseMatrix,
    b: &SparseMatrix,
    policy: Policy,
    cfg: &SpConfig,
) -> Result<CostReport> {
    cfg.validate()?;
    SpgemmBlocks::new(a, b, cfg.tile_rows)?.cost(policy, cfg)
}

/// Exact per-block structure statistics of `y = A·x`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SpmvBlockStats {
    /// Rows of `A` in the block.
    rows: u64,
    /// Nonzeros of `A` in the block.
    nnz: u64,
    /// Distinct columns of `A` the block references (its `x` working set).
    distinct_x: u64,
}

/// The structure pass of `y = A·x` (dense `x`) at one tile size: the exact
/// statistics of every row-block, from which each policy and buffer size
/// is costed without another pass over `A`.
///
/// The SpMV specialisations of the three dataflows: inner streams each row
/// with an uncached gather of `x`, row-wise caches the block's distinct `x`
/// entries, outer runs column-major with `y` partials in the buffer.
pub struct SpmvBlocks {
    /// Rows of `A` per row-block the statistics were gathered at.
    tile_rows: usize,
    /// Per-row-block statistics, in row order.
    blocks: Vec<SpmvBlockStats>,
}

impl SpmvBlocks {
    /// Runs the structure pass over `A` in row-blocks of `tile_rows`.
    ///
    /// # Errors
    ///
    /// Returns [`HlsError::InvalidConfig`] when `tile_rows` is zero.
    pub fn new(a: &SparseMatrix, tile_rows: usize) -> Result<Self> {
        if tile_rows == 0 {
            return Err(HlsError::InvalidConfig(
                "tile_rows must be positive".to_string(),
            ));
        }
        let mut x_seen = vec![0u32; a.cols()];
        let mut stamp = 0u32;
        let mut blocks = Vec::new();
        let mut r0 = 0;
        while r0 < a.rows() {
            let r1 = (r0 + tile_rows).min(a.rows());
            stamp += 1;
            let mut s = SpmvBlockStats {
                rows: (r1 - r0) as u64,
                nnz: 0,
                distinct_x: 0,
            };
            for i in r0..r1 {
                s.nnz += a.row_nnz(i) as u64;
                for &c in a.row_cols(i) {
                    if x_seen[c] != stamp {
                        x_seen[c] = stamp;
                        s.distinct_x += 1;
                    }
                }
            }
            blocks.push(s);
            r0 = r1;
        }
        Ok(Self { tile_rows, blocks })
    }

    /// Models `y = A·x` under `policy` and `cfg`.
    ///
    /// # Errors
    ///
    /// Returns [`HlsError::InvalidConfig`] on an invalid configuration or
    /// when `cfg.tile_rows` is not the tile size of this pass.
    pub fn cost(&self, policy: Policy, cfg: &SpConfig) -> Result<CostReport> {
        cfg.validate()?;
        if cfg.tile_rows != self.tile_rows {
            return Err(HlsError::InvalidConfig(format!(
                "tile_rows {} does not match the structure pass's {}",
                cfg.tile_rows, self.tile_rows
            )));
        }
        let buffer = cfg.buffer_words as u64;
        let block_costs: Vec<[BlockCost; 3]> = self
            .blocks
            .iter()
            .map(|s| {
                let a_words = 2 * s.nnz + s.rows + 1;
                let compute = 2 * s.nnz + s.rows;
                let inner = BlockCost {
                    compute,
                    traffic: a_words + s.nnz + s.rows,
                    occupancy: 2.min(buffer),
                };
                let row_gather = if s.distinct_x <= buffer {
                    s.distinct_x
                } else {
                    s.nnz
                };
                let row = BlockCost {
                    compute,
                    traffic: a_words + row_gather + s.rows,
                    occupancy: s.distinct_x.min(buffer),
                };
                let y_spill = 2 * s.rows.saturating_sub(buffer);
                let outer = BlockCost {
                    compute,
                    traffic: a_words + s.distinct_x + s.rows + y_spill,
                    occupancy: s.rows.min(buffer),
                };
                [inner, outer, row]
            })
            .collect();
        Ok(fold_blocks(&block_costs, policy, cfg))
    }
}

/// Models `y = A·x` (dense `x`) under `policy` and `cfg`: one structure
/// pass and one costing ([`SpmvBlocks`] reuses the pass across policies
/// and buffers).
///
/// # Errors
///
/// Returns [`HlsError::InvalidConfig`] on an invalid configuration.
pub fn spmv_cost(a: &SparseMatrix, policy: Policy, cfg: &SpConfig) -> Result<CostReport> {
    cfg.validate()?;
    SpmvBlocks::new(a, cfg.tile_rows)?.cost(policy, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use f2_core::workload::sparse::{generate, SparsityPattern};

    fn matrix(pattern: SparsityPattern) -> SparseMatrix {
        generate(pattern, 256, 256, 8, 5).expect("valid spec")
    }

    #[test]
    fn policy_names_round_trip() {
        for name in ["inner", "outer", "row", "adaptive"] {
            assert_eq!(Policy::parse(name).expect("known").name(), name);
        }
        assert!(Policy::parse("spada").is_err());
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let m = matrix(SparsityPattern::Uniform);
        for bad in [
            SpConfig {
                tile_rows: 0,
                ..SpConfig::default()
            },
            SpConfig {
                buffer_words: 0,
                ..SpConfig::default()
            },
            SpConfig {
                dram_cycles_per_word: 0,
                ..SpConfig::default()
            },
        ] {
            assert!(spgemm_cost(&m, &m, Policy::Adaptive, &bad).is_err());
            assert!(spmv_cost(&m, Policy::Adaptive, &bad).is_err());
        }
        let thin = generate(SparsityPattern::Uniform, 16, 8, 2, 1).expect("valid");
        assert!(spgemm_cost(&m, &thin, Policy::Adaptive, &SpConfig::default()).is_err());
    }

    /// Block statistics by brute force: the structure of `C = A·B` from a
    /// dense boolean product, every sum taken straight from its definition.
    fn brute_force_block(a: &SparseMatrix, b: &SparseMatrix, r0: usize, r1: usize) -> [u64; 8] {
        let dense = |m: &SparseMatrix| -> Vec<Vec<bool>> {
            (0..m.rows())
                .map(|i| (0..m.cols()).map(|j| m.row_cols(i).contains(&j)).collect())
                .collect()
        };
        let (da, db) = (dense(a), dense(b));
        let b_row_nnz = |k: usize| db[k].iter().filter(|&&x| x).count() as u64;
        let b_col_nnz = |j: usize| db.iter().filter(|row| row[j]).count() as u64;
        let mut s = [0u64; 8];
        let [a_words, flops, out_nnz, max_row, b_words, bcol_words, pair_words, merge] = &mut s;
        *a_words = (r1 - r0 + 1) as u64;
        let mut k_used = vec![false; b.rows()];
        let mut j_used = vec![false; b.cols()];
        for a_row in &da[r0..r1] {
            let a_nnz = a_row.iter().filter(|&&x| x).count() as u64;
            *a_words += 2 * a_nnz;
            let mut row_out = 0;
            for j in 0..b.cols() {
                if (0..a.cols()).any(|k| a_row[k] && db[k][j]) {
                    row_out += 1;
                    *pair_words += 2 * b_col_nnz(j);
                    *merge += a_nnz + b_col_nnz(j);
                    j_used[j] = true;
                }
            }
            for k in (0..a.cols()).filter(|&k| a_row[k]) {
                *flops += b_row_nnz(k);
                k_used[k] = true;
            }
            *out_nnz += row_out;
            *max_row = (*max_row).max(row_out);
        }
        *b_words = (0..b.rows())
            .filter(|&k| k_used[k])
            .map(|k| 2 * b_row_nnz(k))
            .sum();
        *bcol_words = (0..b.cols())
            .filter(|&j| j_used[j])
            .map(|j| 2 * b_col_nnz(j))
            .sum();
        s
    }

    #[test]
    fn symbolic_pass_matches_brute_force_enumeration() {
        for (seed, pattern) in SparsityPattern::ALL.into_iter().enumerate() {
            // A non-square pair, so a row/column mix-up cannot cancel out.
            let a = generate(pattern, 23, 17, 3, seed as u64).expect("valid spec");
            let b = generate(pattern, 17, 29, 4, seed as u64 + 10).expect("valid spec");
            for tile_rows in [1, 3, 8, 23, 40] {
                let pass = SpgemmBlocks::new(&a, &b, tile_rows).expect("valid");
                assert_eq!(pass.blocks.len(), 23usize.div_ceil(tile_rows));
                assert_eq!(pass.bt_words, 2 * b.nnz() as u64);
                for (blk, s) in pass.blocks.iter().enumerate() {
                    let r0 = blk * tile_rows;
                    let r1 = (r0 + tile_rows).min(a.rows());
                    let got = [
                        s.a_words,
                        s.flops,
                        s.out_nnz,
                        s.max_row_out_nnz,
                        s.distinct_b_words,
                        s.distinct_bcol_words,
                        s.pair_bcol_words,
                        s.merge_cost,
                    ];
                    assert_eq!(
                        got,
                        brute_force_block(&a, &b, r0, r1),
                        "{pattern:?}, tile {tile_rows}, block {blk}"
                    );
                }
            }
        }
    }

    #[test]
    fn one_symbolic_pass_costs_every_policy_and_buffer() {
        let m = matrix(SparsityPattern::PowerLaw);
        let pass = SpgemmBlocks::new(&m, &m, 16).expect("valid");
        for buffer_words in [64, 1024] {
            let cfg = SpConfig {
                tile_rows: 16,
                buffer_words,
                ..SpConfig::default()
            };
            for policy in Dataflow::ALL
                .map(Policy::Fixed)
                .into_iter()
                .chain([Policy::Adaptive])
            {
                assert_eq!(
                    pass.cost(policy, &cfg).expect("valid"),
                    spgemm_cost(&m, &m, policy, &cfg).expect("valid")
                );
            }
        }
        // Statistics gathered at one tile size cannot cost another.
        let other_tile = SpConfig {
            tile_rows: 32,
            ..SpConfig::default()
        };
        assert!(pass.cost(Policy::Adaptive, &other_tile).is_err());
        assert!(SpgemmBlocks::new(&m, &m, 0).is_err());
    }

    #[test]
    fn spmv_pass_matches_brute_force_statistics() {
        for pattern in SparsityPattern::ALL {
            let a = generate(pattern, 40, 33, 5, 3).expect("valid spec");
            for tile_rows in [1, 3, 8, 40, 64] {
                let pass = SpmvBlocks::new(&a, tile_rows).expect("valid");
                assert_eq!(pass.blocks.len(), a.rows().div_ceil(tile_rows));
                for (blk, s) in pass.blocks.iter().enumerate() {
                    let rows = blk * tile_rows..((blk + 1) * tile_rows).min(a.rows());
                    let cols: std::collections::BTreeSet<usize> = rows
                        .clone()
                        .flat_map(|i| a.row_cols(i).iter().copied())
                        .collect();
                    let expect = SpmvBlockStats {
                        rows: rows.len() as u64,
                        nnz: rows.map(|i| a.row_cols(i).len() as u64).sum(),
                        distinct_x: cols.len() as u64,
                    };
                    assert_eq!(*s, expect, "{pattern:?}, tile {tile_rows}, block {blk}");
                }
            }
        }
    }

    #[test]
    fn one_spmv_pass_costs_every_policy_on_every_pattern() {
        let policies = Dataflow::ALL
            .map(Policy::Fixed)
            .into_iter()
            .chain([Policy::Adaptive]);
        for pattern in SparsityPattern::ALL {
            let m = matrix(pattern);
            let pass = SpmvBlocks::new(&m, 8).expect("valid");
            for buffer_words in [4, 128, 1024] {
                let cfg = SpConfig {
                    tile_rows: 8,
                    buffer_words,
                    ..SpConfig::default()
                };
                for policy in policies.clone() {
                    assert_eq!(
                        pass.cost(policy, &cfg).expect("valid"),
                        spmv_cost(&m, policy, &cfg).expect("valid"),
                        "{pattern:?}/{}/{buffer_words}",
                        policy.name()
                    );
                }
            }
        }
        let m = matrix(SparsityPattern::Uniform);
        let pass = SpmvBlocks::new(&m, 8).expect("valid");
        let other_tile = SpConfig {
            tile_rows: 16,
            ..SpConfig::default()
        };
        assert!(pass.cost(Policy::Adaptive, &other_tile).is_err());
        assert!(SpmvBlocks::new(&m, 0).is_err());
    }

    #[test]
    fn adaptive_is_bounded_by_every_fixed_dataflow() {
        let cfg = SpConfig::default();
        for pattern in SparsityPattern::ALL {
            let m = matrix(pattern);
            let adaptive = spgemm_cost(&m, &m, Policy::Adaptive, &cfg).expect("valid");
            for df in Dataflow::ALL {
                let fixed = spgemm_cost(&m, &m, Policy::Fixed(df), &cfg).expect("valid");
                assert!(
                    adaptive.cycles
                        <= fixed.cycles + adaptive.switches * u64::from(cfg.switch_penalty),
                    "{pattern:?}/{}: adaptive {} > fixed {} + overhead",
                    df.name(),
                    adaptive.cycles,
                    fixed.cycles
                );
            }
        }
    }

    #[test]
    fn adaptive_beats_best_fixed_on_mixed_sparsity() {
        // Power-law rows are the mixed case: dense head blocks overflow the
        // Gustavson accumulator (outer wins) while the sparse tail caches
        // cleanly (row-wise wins), so per-block selection must win strictly
        // despite the switch penalty.
        let m = generate(SparsityPattern::PowerLaw, 1024, 1024, 8, 5).expect("valid spec");
        let cfg = SpConfig {
            tile_rows: 8,
            buffer_words: 512,
            ..SpConfig::default()
        };
        let adaptive = spgemm_cost(&m, &m, Policy::Adaptive, &cfg).expect("valid");
        let best_fixed = Dataflow::ALL
            .into_iter()
            .map(|df| {
                spgemm_cost(&m, &m, Policy::Fixed(df), &cfg)
                    .expect("valid")
                    .cycles
            })
            .min()
            .expect("three dataflows");
        assert!(
            adaptive.cycles < best_fixed,
            "adaptive {} must beat best fixed {}",
            adaptive.cycles,
            best_fixed
        );
        assert!(adaptive.switches > 0, "a mixed matrix must switch");
        assert!(
            adaptive.selections.iter().filter(|&&n| n > 0).count() > 1,
            "a mixed matrix must use more than one dataflow: {:?}",
            adaptive.selections
        );
    }

    #[test]
    fn fixed_policies_never_switch_and_fill_selections() {
        let m = matrix(SparsityPattern::Uniform);
        let cfg = SpConfig::default();
        for (idx, df) in Dataflow::ALL.into_iter().enumerate() {
            let r = spgemm_cost(&m, &m, Policy::Fixed(df), &cfg).expect("valid");
            assert_eq!(r.switches, 0);
            assert_eq!(r.selections[idx], r.blocks);
            assert!(r.peak_buffer_words <= cfg.buffer_words as u64);
            assert!(r.cycles >= r.compute_cycles);
        }
    }

    #[test]
    fn bigger_buffers_never_cost_cycles() {
        let m = matrix(SparsityPattern::PowerLaw);
        for df in [
            Policy::Fixed(Dataflow::RowWise),
            Policy::Fixed(Dataflow::Outer),
            Policy::Adaptive,
        ] {
            let mut prev = u64::MAX;
            for buffer_words in [256, 1024, 4096, 16384] {
                let cfg = SpConfig {
                    buffer_words,
                    ..SpConfig::default()
                };
                let r = spgemm_cost(&m, &m, df, &cfg).expect("valid");
                assert!(
                    r.cycles <= prev,
                    "{}: buffer {buffer_words} regressed {} > {prev}",
                    df.name(),
                    r.cycles
                );
                prev = r.cycles;
            }
        }
    }

    #[test]
    fn spmv_costs_are_consistent() {
        let m = matrix(SparsityPattern::PowerLaw);
        let cfg = SpConfig::default();
        let adaptive = spmv_cost(&m, Policy::Adaptive, &cfg).expect("valid");
        for df in Dataflow::ALL {
            let fixed = spmv_cost(&m, Policy::Fixed(df), &cfg).expect("valid");
            assert!(
                adaptive.cycles <= fixed.cycles + adaptive.switches * u64::from(cfg.switch_penalty)
            );
            assert!(fixed.dram_words > 0 && fixed.compute_cycles > 0);
        }
        // Row-wise SpMV caches x within a block; the uncached inner stream
        // can never beat it.
        let row = spmv_cost(&m, Policy::Fixed(Dataflow::RowWise), &cfg).expect("valid");
        let inner = spmv_cost(&m, Policy::Fixed(Dataflow::Inner), &cfg).expect("valid");
        assert!(row.cycles <= inner.cycles);
    }

    #[test]
    fn costs_are_deterministic() {
        let m = matrix(SparsityPattern::BlockDiagonal);
        let cfg = SpConfig::default();
        let a = spgemm_cost(&m, &m, Policy::Adaptive, &cfg).expect("valid");
        let b = spgemm_cost(&m, &m, Policy::Adaptive, &cfg).expect("valid");
        assert_eq!(a, b);
    }
}
