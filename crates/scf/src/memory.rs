//! Memory models: flat byte memory, banked L1 TCDM and a cluster DMA.
//!
//! §VII: Compute Units share "a local L1 SRAM to enable coordinated
//! computation". Snitch-style clusters implement that L1 as a
//! tightly-coupled data memory (TCDM) of word-interleaved SRAM banks; when
//! two requesters hit the same bank in one cycle, one stalls. [`Tcdm`]
//! counts exactly those conflicts; [`Dma`] models the HBM-to-TCDM transfers
//! that double-buffer weights.

use crate::error::ScfError;
use crate::Result;
use std::cell::RefCell;
use std::thread::LocalKey;

// Zeroed-buffer recycling for simulator state.
//
// Experiment sweeps and the bench suite construct and drop whole clusters in
// a tight loop; routing the multi-hundred-KiB state buffers through the
// system allocator each time makes construction cost depend on allocator
// tuning state (observed on 1-vCPU CI machines as a sustained minor-fault
// storm: glibc trims the freed buffers and every page refaults on the next
// iteration). Instead, dropped buffers return — re-zeroed only over their
// dirty span — to a small thread-local pool, making construction
// O(touched state) and allocator-independent. Pool invariant: every stored
// buffer is entirely zero (`T::default()` is zero for both element types).

type Pool<T> = RefCell<Vec<Vec<T>>>;

const POOL_CAP: usize = 32;

thread_local! {
    static BYTE_POOL: Pool<u8> = const { RefCell::new(Vec::new()) };
    static WORD_POOL: Pool<u32> = const { RefCell::new(Vec::new()) };
}

/// A zeroed buffer of `len` elements, reused from `pool` when it holds one.
fn take_zeroed<T: Copy + Default>(pool: &'static LocalKey<Pool<T>>, len: usize) -> Vec<T> {
    pool.with(|p| {
        let mut p = p.borrow_mut();
        p.iter()
            .position(|b| b.len() == len)
            .map(|i| p.swap_remove(i))
    })
    .unwrap_or_else(|| vec![T::default(); len])
}

/// Re-zeroes `buf` over its first `dirty` elements and returns it to
/// `pool`, unless the pool is full.
fn recycle<T: Copy + Default>(pool: &'static LocalKey<Pool<T>>, mut buf: Vec<T>, dirty: usize) {
    pool.with(|p| {
        let mut p = p.borrow_mut();
        if p.len() < POOL_CAP && !buf.is_empty() {
            let hi = dirty.min(buf.len());
            buf[..hi].fill(T::default());
            p.push(buf);
        }
    });
}

/// Byte-addressable memory interface used by the ISS core.
pub trait Memory {
    /// Loads one byte.
    ///
    /// # Errors
    ///
    /// Returns [`ScfError::MemoryFault`] for unmapped addresses.
    fn load_u8(&mut self, addr: u32) -> Result<u8>;

    /// Stores one byte.
    ///
    /// # Errors
    ///
    /// Returns [`ScfError::MemoryFault`] for unmapped addresses.
    fn store_u8(&mut self, addr: u32, value: u8) -> Result<()>;

    /// Loads a 32-bit little-endian word.
    ///
    /// # Errors
    ///
    /// Returns [`ScfError::MemoryFault`] for unmapped/misaligned addresses.
    fn load_u32(&mut self, addr: u32) -> Result<u32>;

    /// Stores a 32-bit little-endian word.
    ///
    /// # Errors
    ///
    /// Returns [`ScfError::MemoryFault`] for unmapped/misaligned addresses.
    fn store_u32(&mut self, addr: u32, value: u32) -> Result<()>;

    /// Loads a 16-bit little-endian half-word.
    ///
    /// # Errors
    ///
    /// Returns [`ScfError::MemoryFault`] for unmapped/misaligned addresses.
    fn load_u16(&mut self, addr: u32) -> Result<u16>;

    /// Stores a 16-bit little-endian half-word.
    ///
    /// # Errors
    ///
    /// Returns [`ScfError::MemoryFault`] for unmapped/misaligned addresses.
    fn store_u16(&mut self, addr: u32, value: u16) -> Result<()>;
}

/// A flat byte memory of fixed size starting at address 0.
///
/// Equality compares contents only. The backing buffer comes from (and
/// returns to) a thread-local recycling pool; `dirty_hi` conservatively
/// bounds the bytes that may be nonzero so re-zeroing on drop touches only
/// the written span.
#[derive(Debug, Clone)]
pub struct FlatMemory {
    bytes: Vec<u8>,
    /// Exclusive upper bound of possibly-nonzero bytes.
    dirty_hi: u32,
}

impl PartialEq for FlatMemory {
    fn eq(&self, other: &Self) -> bool {
        self.bytes == other.bytes
    }
}

impl Eq for FlatMemory {}

impl Drop for FlatMemory {
    fn drop(&mut self) {
        recycle(
            &BYTE_POOL,
            std::mem::take(&mut self.bytes),
            self.dirty_hi as usize,
        );
    }
}

impl FlatMemory {
    /// Creates a zeroed memory of `size` bytes.
    pub fn new(size: usize) -> Self {
        Self {
            bytes: take_zeroed(&BYTE_POOL, size),
            dirty_hi: 0,
        }
    }

    /// Creates a 64 KiB memory with `program` (instruction words) loaded at
    /// `base`.
    ///
    /// # Panics
    ///
    /// Panics if the program does not fit.
    pub fn with_program(base: u32, program: &[u32]) -> Self {
        let mut mem = Self::new(64 * 1024);
        mem.load_program(base, program);
        mem
    }

    /// Writes `program` words starting at `base`.
    ///
    /// # Panics
    ///
    /// Panics if the program does not fit.
    pub fn load_program(&mut self, base: u32, program: &[u32]) {
        for (i, &word) in program.iter().enumerate() {
            let addr = base as usize + i * 4;
            assert!(addr + 4 <= self.bytes.len(), "program exceeds memory");
            self.bytes[addr..addr + 4].copy_from_slice(&word.to_le_bytes());
            self.dirty_hi = self.dirty_hi.max((addr + 4) as u32);
        }
    }

    /// Size in bytes.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// True if the memory has zero size.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }
}

impl Memory for FlatMemory {
    fn load_u8(&mut self, addr: u32) -> Result<u8> {
        self.bytes
            .get(addr as usize)
            .copied()
            .ok_or(ScfError::MemoryFault {
                addr,
                cause: "load beyond memory size",
            })
    }

    fn store_u8(&mut self, addr: u32, value: u8) -> Result<()> {
        match self.bytes.get_mut(addr as usize) {
            Some(slot) => {
                *slot = value;
                self.dirty_hi = self.dirty_hi.max(addr.saturating_add(1));
                Ok(())
            }
            None => Err(ScfError::MemoryFault {
                addr,
                cause: "store beyond memory size",
            }),
        }
    }

    fn load_u32(&mut self, addr: u32) -> Result<u32> {
        if !addr.is_multiple_of(4) {
            return Err(ScfError::MemoryFault {
                addr,
                cause: "misaligned word load",
            });
        }
        match self.bytes.get(addr as usize..addr as usize + 4) {
            Some(b) => Ok(u32::from_le_bytes(b.try_into().expect("4-byte slice"))),
            None => Err(ScfError::MemoryFault {
                addr,
                cause: "load beyond memory size",
            }),
        }
    }

    fn store_u32(&mut self, addr: u32, value: u32) -> Result<()> {
        if !addr.is_multiple_of(4) {
            return Err(ScfError::MemoryFault {
                addr,
                cause: "misaligned word store",
            });
        }
        match self.bytes.get_mut(addr as usize..addr as usize + 4) {
            Some(b) => {
                b.copy_from_slice(&value.to_le_bytes());
                self.dirty_hi = self.dirty_hi.max(addr.saturating_add(4));
                Ok(())
            }
            None => Err(ScfError::MemoryFault {
                addr,
                cause: "store beyond memory size",
            }),
        }
    }

    fn load_u16(&mut self, addr: u32) -> Result<u16> {
        if !addr.is_multiple_of(2) {
            return Err(ScfError::MemoryFault {
                addr,
                cause: "misaligned half-word load",
            });
        }
        match self.bytes.get(addr as usize..addr as usize + 2) {
            Some(b) => Ok(u16::from_le_bytes(b.try_into().expect("2-byte slice"))),
            None => Err(ScfError::MemoryFault {
                addr,
                cause: "load beyond memory size",
            }),
        }
    }

    fn store_u16(&mut self, addr: u32, value: u16) -> Result<()> {
        if !addr.is_multiple_of(2) {
            return Err(ScfError::MemoryFault {
                addr,
                cause: "misaligned half-word store",
            });
        }
        match self.bytes.get_mut(addr as usize..addr as usize + 2) {
            Some(b) => {
                b.copy_from_slice(&value.to_le_bytes());
                self.dirty_hi = self.dirty_hi.max(addr.saturating_add(2));
                Ok(())
            }
            None => Err(ScfError::MemoryFault {
                addr,
                cause: "store beyond memory size",
            }),
        }
    }
}

/// Banked, word-interleaved L1 TCDM with per-cycle conflict accounting.
///
/// Like [`FlatMemory`], the data array is pool-recycled: `dirty_hi` bounds
/// the word indices that may be nonzero, and dropping the TCDM re-zeroes
/// only that span before returning the buffer to the thread-local pool.
#[derive(Debug, Clone)]
pub struct Tcdm {
    banks: usize,
    words_per_bank: usize,
    data: Vec<u32>,
    /// Exclusive upper bound of possibly-nonzero word indices.
    dirty_hi: u32,
    // Bank access bookkeeping for the current cycle. `bank_busy[b]` is the
    // number of requests bank `b` served in `bank_stamp[b]`; a stale stamp
    // means "no requests this cycle", so `tick` is O(1) instead of clearing
    // every bank (the partitioned-stepping engine ticks per boundary event).
    current_cycle: u64,
    bank_stamp: Vec<u64>, // cycle the bank's busy count belongs to
    bank_busy: Vec<u64>,  // requests already served that cycle per bank
    conflict_stalls: u64,
    accesses: u64,
}

impl PartialEq for Tcdm {
    fn eq(&self, other: &Self) -> bool {
        // `dirty_hi` is a recycling detail, not observable state.
        self.banks == other.banks
            && self.words_per_bank == other.words_per_bank
            && self.data == other.data
            && self.current_cycle == other.current_cycle
            && self.bank_stamp == other.bank_stamp
            && self.bank_busy == other.bank_busy
            && self.conflict_stalls == other.conflict_stalls
            && self.accesses == other.accesses
    }
}

impl Drop for Tcdm {
    fn drop(&mut self) {
        recycle(
            &WORD_POOL,
            std::mem::take(&mut self.data),
            self.dirty_hi as usize,
        );
    }
}

impl Tcdm {
    /// Creates a TCDM of `banks` banks × `words_per_bank` 32-bit words.
    ///
    /// # Errors
    ///
    /// Returns [`ScfError::InvalidConfig`] on zero geometry or a bank count
    /// that is not a power of two (interleaving requires it).
    pub fn new(banks: usize, words_per_bank: usize) -> Result<Self> {
        if banks == 0 || words_per_bank == 0 {
            return Err(ScfError::InvalidConfig(
                "TCDM geometry must be positive".to_string(),
            ));
        }
        if !banks.is_power_of_two() {
            return Err(ScfError::InvalidConfig(
                "TCDM bank count must be a power of two".to_string(),
            ));
        }
        Ok(Self {
            banks,
            words_per_bank,
            data: take_zeroed(&WORD_POOL, banks * words_per_bank),
            dirty_hi: 0,
            current_cycle: 0,
            bank_stamp: vec![0; banks],
            bank_busy: vec![0; banks],
            conflict_stalls: 0,
            accesses: 0,
        })
    }

    /// Total capacity in bytes.
    pub fn capacity_bytes(&self) -> usize {
        self.banks * self.words_per_bank * 4
    }

    /// Number of banks.
    pub fn banks(&self) -> usize {
        self.banks
    }

    /// Accesses (reads + writes) so far.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Cycles lost to bank conflicts so far.
    pub fn conflict_stalls(&self) -> u64 {
        self.conflict_stalls
    }

    /// Begins a new arbitration cycle. O(1): per-bank busy counts carry the
    /// cycle they were recorded in, so stale counts are ignored lazily by
    /// [`Tcdm::access`] instead of being cleared here.
    pub fn tick(&mut self, cycle: u64) {
        self.current_cycle = cycle;
    }

    fn bank_of(&self, word_index: usize) -> usize {
        word_index % self.banks
    }

    /// Word-granular access at `word_index`; returns the extra stall cycles
    /// caused by a bank conflict in this arbitration cycle.
    ///
    /// # Errors
    ///
    /// Returns [`ScfError::MemoryFault`] if the index is out of range.
    pub fn access(&mut self, word_index: usize) -> Result<u32> {
        if word_index >= self.data.len() {
            return Err(ScfError::MemoryFault {
                addr: (word_index * 4) as u32,
                cause: "TCDM index out of range",
            });
        }
        let bank = self.bank_of(word_index);
        if self.bank_stamp[bank] != self.current_cycle {
            self.bank_stamp[bank] = self.current_cycle;
            self.bank_busy[bank] = 0;
        }
        let stall = self.bank_busy[bank];
        self.bank_busy[bank] += 1;
        self.conflict_stalls += stall;
        self.accesses += 1;
        Ok(stall as u32)
    }

    /// Reads a word (no arbitration side effects).
    ///
    /// # Errors
    ///
    /// Returns [`ScfError::MemoryFault`] if out of range.
    pub fn read_word(&self, word_index: usize) -> Result<u32> {
        self.data
            .get(word_index)
            .copied()
            .ok_or(ScfError::MemoryFault {
                addr: (word_index * 4) as u32,
                cause: "TCDM index out of range",
            })
    }

    /// Writes a word (no arbitration side effects).
    ///
    /// # Errors
    ///
    /// Returns [`ScfError::MemoryFault`] if out of range.
    pub fn write_word(&mut self, word_index: usize, value: u32) -> Result<()> {
        match self.data.get_mut(word_index) {
            Some(slot) => {
                *slot = value;
                self.dirty_hi = self.dirty_hi.max((word_index as u32).saturating_add(1));
                Ok(())
            }
            None => Err(ScfError::MemoryFault {
                addr: (word_index * 4) as u32,
                cause: "TCDM index out of range",
            }),
        }
    }
}

/// Cluster DMA engine: bulk HBM ⇄ TCDM transfers at a fixed word rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Dma {
    /// Words moved per cycle when streaming.
    pub words_per_cycle: f64,
    /// Fixed programming/setup cost per transfer (cycles).
    pub setup_cycles: u64,
}

impl Dma {
    /// A Snitch-cluster-class DMA: 512-bit bus (16 words/cycle), 20-cycle
    /// setup.
    pub fn cluster_default() -> Self {
        Self {
            words_per_cycle: 16.0,
            setup_cycles: 20,
        }
    }

    /// Cycles to transfer `bytes`.
    pub fn transfer_cycles(&self, bytes: u64) -> u64 {
        let words = bytes.div_ceil(4);
        self.setup_cycles + (words as f64 / self.words_per_cycle).ceil() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_memory_word_round_trip() {
        let mut m = FlatMemory::new(64);
        m.store_u32(8, 0xDEAD_BEEF).expect("in range");
        assert_eq!(m.load_u32(8).expect("in range"), 0xDEAD_BEEF);
        assert_eq!(m.load_u8(8).expect("in range"), 0xEF); // little endian
    }

    #[test]
    fn flat_memory_faults() {
        let mut m = FlatMemory::new(16);
        assert!(m.load_u8(16).is_err());
        assert!(m.store_u8(100, 1).is_err());
        assert!(m.load_u32(2).is_err()); // misaligned
        assert!(m.load_u16(1).is_err());
    }

    #[test]
    fn program_loading() {
        let m = FlatMemory::with_program(4, &[0x1111_1111, 0x2222_2222]);
        let mut m = m;
        assert_eq!(m.load_u32(4).expect("in range"), 0x1111_1111);
        assert_eq!(m.load_u32(8).expect("in range"), 0x2222_2222);
    }

    #[test]
    fn tcdm_conflicts_counted() {
        let mut t = Tcdm::new(4, 64).expect("valid");
        t.tick(1);
        // Two accesses to bank 0 (indices 0 and 4) in the same cycle: the
        // second stalls one cycle.
        assert_eq!(t.access(0).expect("in range"), 0);
        assert_eq!(t.access(4).expect("in range"), 1);
        // Different bank: no stall.
        assert_eq!(t.access(1).expect("in range"), 0);
        assert_eq!(t.conflict_stalls(), 1);
        // New cycle clears arbitration.
        t.tick(2);
        assert_eq!(t.access(0).expect("in range"), 0);
    }

    #[test]
    fn tcdm_geometry_checks() {
        assert!(Tcdm::new(0, 16).is_err());
        assert!(Tcdm::new(3, 16).is_err()); // not a power of two
        let t = Tcdm::new(8, 128).expect("valid");
        assert_eq!(t.capacity_bytes(), 8 * 128 * 4);
        assert_eq!(t.banks(), 8);
    }

    #[test]
    fn tcdm_data_round_trip() {
        let mut t = Tcdm::new(4, 8).expect("valid");
        t.write_word(5, 42).expect("in range");
        assert_eq!(t.read_word(5).expect("in range"), 42);
        assert!(t.read_word(32).is_err());
        assert!(t.write_word(32, 0).is_err());
        assert!(t.access(32).is_err());
    }

    #[test]
    fn dma_cycle_model() {
        let dma = Dma::cluster_default();
        assert_eq!(dma.transfer_cycles(0), 20);
        assert_eq!(dma.transfer_cycles(64), 20 + 1);
        assert_eq!(dma.transfer_cycles(64 * 16), 20 + 16);
    }
}
