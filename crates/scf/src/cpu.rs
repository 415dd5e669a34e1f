//! The RV32IM instruction-set simulator core.
//!
//! A single-issue in-order core model in the Snitch/CV32E40P class: 1 cycle
//! per ALU op, 1-cycle multiplier, iterative divider, 2-cycle loads and a
//! 1-cycle taken-branch penalty. The ISS is architecturally exact (register
//! and memory state match the RV32IM spec); the cycle model is the standard
//! first-order pipeline abstraction used for cluster sizing.
//!
//! # Basic-block compilation
//!
//! The hot path does not interpret one instruction at a time. On first
//! execution [`Cpu`] decodes the straight-line run starting at the current
//! PC — up to and including the next jump/branch/`ecall`/`ebreak`/CSR
//! instruction, capped at [`BB_MAX_LEN`] — into a [`BasicBlock`] held in a
//! direct-mapped table keyed by entry PC, then executes whole blocks with
//! no per-step fetch or decode. The table starts at [`BB_CACHE_SLOTS`]
//! slots (1 KiB of code) and grows with the hot code: when a new block's
//! slot holds another block, the table doubles instead of evicting, up to
//! [`BB_CACHE_MAX_SLOTS`] (64 KiB of code). Execution stays bit-identical
//! to the plain interpreter ([`Cpu::step`]):
//!
//! * every instruction checks both budgets first and updates the PC and
//!   the `cycle`/`instret` counters individually, so mid-block CSR reads,
//!   faults and budget stops observe exactly the interpreter's state;
//! * each block remembers the exact words it was compiled from, and a
//!   successful store overlapping any cached block's byte range invalidates
//!   that block — a store into the *currently running* block additionally
//!   aborts it after the current instruction, so the modified tail is
//!   recompiled from the freshly written memory (self-modifying code is
//!   exact). A block spans at most [`BB_MAX_LEN`] words, so a store probes
//!   only the slots of the entry PCs up to that far below it, whatever the
//!   table size;
//! * `run` drops all blocks on entry, because the caller may have rewritten
//!   memory since the previous call.
//!
//! `run` takes a [`FlatMemory`] and is not generic, so the engine behind it
//! is compiled once, inside this crate, whichever binary calls it. A core
//! of the multicore cluster stops its block at every shared-memory access
//! (see [`crate::multicore`]); the instruction after it then starts a block
//! of its own, compiled once like any other.
//!
//! Dropped tables hand their blocks to a thread-local spare pool that the
//! compiler builds new blocks in, so neither a core's teardown nor its
//! compiles churn the allocator.

use std::cell::RefCell;

use crate::error::ScfError;
use crate::isa::{decode, AluOp, BranchCond, Instr, MemWidth, MulDivOp};
use crate::memory::{FlatMemory, Memory};
use crate::Result;

/// Why a run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HaltReason {
    /// The program executed `ecall`.
    Ecall,
    /// The program executed `ebreak`.
    Ebreak,
}

/// Statistics of one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunStats {
    /// Reason the core halted.
    pub halt: HaltReason,
    /// Instructions retired (including the halting instruction).
    pub instructions: u64,
    /// Modelled cycles consumed.
    pub cycles: u64,
}

/// Cycle costs of the core model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CycleModel {
    /// Base cost of any instruction.
    pub base: u64,
    /// Extra cycles for a load.
    pub load_extra: u64,
    /// Extra cycles for a taken branch / jump.
    pub taken_branch_extra: u64,
    /// Extra cycles for a multiply.
    pub mul_extra: u64,
    /// Extra cycles for a divide/remainder.
    pub div_extra: u64,
}

impl Default for CycleModel {
    fn default() -> Self {
        Self {
            base: 1,
            load_extra: 1,
            taken_branch_extra: 1,
            mul_extra: 0,
            div_extra: 7,
        }
    }
}

/// Initial number of direct-mapped block-table slots (a power of two),
/// covering 1 KiB of code. A new [`Cpu`] allocates only these, so creating
/// a core and running small programs stays cheap.
const BB_CACHE_SLOTS: usize = 256;

/// Slot count at which the block table stops doubling: 64 KiB of code,
/// the whole memory of `FlatMemory::with_program` and of the multicore
/// private memories, at 128 KiB of table per core. Past the cap a new
/// block evicts the one in its slot.
const BB_CACHE_MAX_SLOTS: usize = 16384;

/// Maximum instructions compiled into one basic block.
const BB_MAX_LEN: usize = 64;

/// Most spare blocks a thread keeps for reuse (see [`SPARE_BLOCKS`]):
/// the blocks of a table grown to 4096 slots, at most ~3.3 MiB of buffers
/// (a block's buffers never exceed [`BB_MAX_LEN`] entries).
const SPARE_BLOCKS_CAP: usize = 4096;

thread_local! {
    /// Blocks of cleared and dropped caches, reused by [`compile_block`].
    /// A core that cached thousands of blocks would otherwise free them
    /// all at once, and the allocator defers the bookkeeping of that many
    /// small frees to a later, unrelated allocation: the next core's
    /// table in [`Cpu::new`]. Recycled blocks keep their buffers, so
    /// compiling into one allocates nothing. The pool keeps the boxes
    /// themselves, so recycling a block frees nothing.
    #[allow(clippy::vec_box)]
    static SPARE_BLOCKS: RefCell<Vec<Box<BasicBlock>>> = const { RefCell::new(Vec::new()) };
}

/// Hands `blocks` to the thread's spare pool, dropping those past its cap.
/// Returns false, having taken nothing, when the pool is already gone
/// (thread teardown).
fn recycle(blocks: impl Iterator<Item = Box<BasicBlock>>) -> bool {
    SPARE_BLOCKS
        .try_with(|spare| {
            let mut spare = spare.borrow_mut();
            for block in blocks {
                if spare.len() < SPARE_BLOCKS_CAP {
                    spare.push(block);
                }
            }
        })
        .is_ok()
}

/// A pre-decoded straight-line run of instructions.
///
/// `words` holds the exact instruction words fetched at compile time (the
/// block's fingerprint): faults and boundary replays report/re-execute the
/// very word the block was built from, and stores into `[entry_pc, end_pc)`
/// invalidate the block, so a block only ever executes against the memory
/// image it was compiled from.
#[derive(Debug, Clone, Default)]
struct BasicBlock {
    entry_pc: u32,
    /// Exclusive end of the fetched byte range.
    end_pc: u32,
    words: Vec<u32>,
    instrs: Vec<Instr>,
}

/// True when `instr` must terminate a basic block.
fn ends_block(instr: Instr) -> bool {
    matches!(
        instr,
        Instr::Jal { .. }
            | Instr::Jalr { .. }
            | Instr::Branch { .. }
            | Instr::Ecall
            | Instr::Ebreak
            | Instr::Csr { .. }
    )
}

/// Byte-range overlap test (`u64` arithmetic dodges address wrap-around).
fn overlaps(addr: u32, len: u32, lo: u32, hi: u32) -> bool {
    (addr as u64) < hi as u64 && addr as u64 + len as u64 > lo as u64
}

/// Decodes the straight-line run starting at `pc`.
///
/// Instructions accumulate until a terminator is *included*, the length cap
/// is reached, or the next word fails to fetch or decode (the block ends
/// before the bad word; dispatching at it later falls back to the
/// interpreter, which surfaces the exact fault). Returns `Ok(None)` when
/// not even the first word compiles, and propagates [`ScfError::Yield`]
/// when the first fetch hits a partitioned-stepping boundary.
#[inline(never)] // cold next to the dispatch loop; keeps its Vec frames out of the hot path
fn compile_block(pc: u32, mem: &mut impl Memory) -> Result<Option<Box<BasicBlock>>> {
    let mut block: Box<BasicBlock> = SPARE_BLOCKS
        .try_with(|spare| spare.borrow_mut().pop())
        .ok()
        .flatten()
        .unwrap_or_default();
    block.entry_pc = pc;
    block.words.clear();
    block.instrs.clear();
    let mut cur = pc;
    loop {
        let word = match mem.load_u32(cur) {
            Ok(word) => word,
            Err(ScfError::Yield) if block.instrs.is_empty() => return Err(ScfError::Yield),
            Err(_) => break,
        };
        let Ok(instr) = decode(word, cur) else { break };
        block.words.push(word);
        block.instrs.push(instr);
        cur = cur.wrapping_add(4);
        if ends_block(instr) || block.instrs.len() >= BB_MAX_LEN || cur < pc {
            break;
        }
    }
    block.end_pc = cur;
    Ok((!block.instrs.is_empty()).then_some(block))
}

/// Why [`Cpu::exec_blocks`] stopped.
#[derive(Debug)]
pub(crate) enum BlockExit {
    /// `ecall`/`ebreak` retired; `issued_at` is the cycle it issued (its
    /// cost is already charged to the cycle accumulator).
    Halt { reason: HaltReason, issued_at: u64 },
    /// The memory view raised [`ScfError::Yield`]: the next instruction
    /// touches shared memory and must be replayed under real arbitration.
    /// `predecoded` carries its decoded form when it came out of a compiled
    /// block (the common case), letting the replay skip fetch and decode.
    Yield { predecoded: Option<(Instr, u32)> },
    /// The instruction budget ran out before a halt.
    InstrCap,
    /// The cycle budget ran out before a halt.
    CycleCap,
    /// An architectural fault; CPU state is exactly the interpreter's state
    /// at the fault (the faulting instruction retired nothing).
    Fault(ScfError),
}

/// The data operation of a boundary instruction that
/// [`Cpu::resolve_boundary`] could fully evaluate ahead of its replay.
#[derive(Debug, Clone, Copy)]
pub(crate) enum BoundaryOp {
    /// An aligned word load into `rd`.
    LoadWord { rd: u8 },
    /// An aligned word store of `value`.
    StoreWord { value: u32 },
}

/// A boundary instruction resolved at yield time: its address, operation
/// and cycle cost are architecturally final the moment the core suspends
/// (nothing else runs on this core before the replay), so the cluster's
/// event loop can apply it straight to the shared memory and skip the
/// second trip through the execution engine.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ResolvedBoundary {
    pub(crate) addr: u32,
    pub(crate) op: BoundaryOp,
    pub(crate) cost: u64,
}

/// Rare per-instruction side effects the dispatch loop must react to.
///
/// The common case is `Ok(None)` — a plain register/PC/counter update with
/// nothing for the loop to inspect — so the retire path costs the loop one
/// branch on the `Option` tag instead of separate halt and store checks.
enum ExecEvent {
    /// `ecall`/`ebreak` retired.
    Halt { reason: HaltReason },
    /// `(address, bytes)` of a successful store, for SMC invalidation.
    Store { addr: u32, len: u32 },
}

/// The per-instruction architectural state the dispatch loop keeps in
/// locals (i.e. registers) instead of `Cpu` fields.
///
/// Writing the PC and the counters through `&mut self` on every retired
/// instruction creates a loop-carried store-to-load-forwarding chain that
/// alone costs several cycles per emulated instruction; executing against
/// this struct and syncing with [`Cpu`] only at call boundaries removes
/// the chain while keeping every mid-block observation (CSR reads, fault
/// states) exact, because the sync happens before any of those escape.
#[derive(Clone, Copy)]
struct HotState {
    pc: u32,
    cycle: u64,
    instret: u64,
}

impl HotState {
    fn load(cpu: &Cpu) -> Self {
        Self {
            pc: cpu.pc,
            cycle: cpu.cycle_counter,
            instret: cpu.instret_counter,
        }
    }

    fn store(self, cpu: &mut Cpu) {
        cpu.pc = self.pc;
        cpu.cycle_counter = self.cycle;
        cpu.instret_counter = self.instret;
    }
}

/// An RV32IM hart.
///
/// Equality compares architectural state only (registers, PC, counters and
/// the cycle model); the block cache and its statistics are
/// microarchitectural details and are excluded.
#[derive(Debug, Clone)]
pub struct Cpu {
    regs: [u32; 32],
    pc: u32,
    cycle_model: CycleModel,
    hart_id: u32,
    cycle_counter: u64,
    instret_counter: u64,
    /// Direct-mapped block table: a block entered at `pc` lives in slot
    /// [`Cpu::slot_of`]`(pc)`. Its length is a power of two from
    /// [`BB_CACHE_SLOTS`] to [`BB_CACHE_MAX_SLOTS`].
    blocks: Vec<Option<Box<BasicBlock>>>,
    /// Conservative cover of every cached block's byte range; stores outside
    /// `[code_lo, code_hi)` cannot touch compiled code. `lo > hi` = empty.
    code_lo: u32,
    code_hi: u32,
    // Block-cache statistics, drained by `flush_bb_counters`.
    bb_hits: u64,
    bb_misses: u64,
    bb_invalidations: u64,
    bb_evictions: u64,
    bb_lens: Vec<u32>,
}

impl PartialEq for Cpu {
    fn eq(&self, other: &Self) -> bool {
        self.regs == other.regs
            && self.pc == other.pc
            && self.cycle_model == other.cycle_model
            && self.hart_id == other.hart_id
            && self.cycle_counter == other.cycle_counter
            && self.instret_counter == other.instret_counter
    }
}

impl Eq for Cpu {}

impl Drop for Cpu {
    /// Hands the cached blocks to the spare pool instead of freeing them.
    fn drop(&mut self) {
        recycle(std::mem::take(&mut self.blocks).into_iter().flatten());
    }
}

impl Cpu {
    /// Creates a core with all registers zero and the PC at `reset_pc`.
    pub fn new(reset_pc: u32) -> Self {
        Self {
            regs: [0; 32],
            pc: reset_pc,
            cycle_model: CycleModel::default(),
            hart_id: 0,
            cycle_counter: 0,
            instret_counter: 0,
            blocks: vec![None; BB_CACHE_SLOTS],
            code_lo: u32::MAX,
            code_hi: 0,
            bb_hits: 0,
            bb_misses: 0,
            bb_invalidations: 0,
            bb_evictions: 0,
            bb_lens: Vec::new(),
        }
    }

    /// Sets the hart id visible through the `mhartid` CSR.
    pub fn set_hart_id(&mut self, id: u32) {
        self.hart_id = id;
    }

    /// Cycles the core has executed (the `cycle` CSR value).
    pub fn cycle_counter(&self) -> u64 {
        self.cycle_counter
    }

    fn csr_read(&self, csr: u16, hot: &HotState, word: u32) -> Result<u32> {
        match csr {
            0xC00 => Ok(hot.cycle as u32),
            0xC80 => Ok((hot.cycle >> 32) as u32),
            0xC02 => Ok(hot.instret as u32),
            0xC82 => Ok((hot.instret >> 32) as u32),
            0xF14 => Ok(self.hart_id),
            _ => Err(ScfError::IllegalInstruction { pc: hot.pc, word }),
        }
    }

    /// Replaces the cycle model (for calibration sweeps).
    pub fn with_cycle_model(mut self, model: CycleModel) -> Self {
        self.cycle_model = model;
        self
    }

    /// Register value (`x0` always reads 0). The index is masked to the
    /// architectural 5 bits, which also keeps the accessor bounds-check
    /// free inside the block dispatch loop.
    pub fn reg(&self, index: u8) -> u32 {
        self.regs[(index & 31) as usize]
    }

    /// Writes a register (`x0` writes are ignored, per spec; the index is
    /// masked to 5 bits like [`Cpu::reg`]).
    pub fn set_reg(&mut self, index: u8, value: u32) {
        if (index & 31) != 0 {
            self.regs[(index & 31) as usize] = value;
        }
    }

    /// Current program counter.
    pub fn pc(&self) -> u32 {
        self.pc
    }

    /// Drops every compiled block (and the cached-code range cover),
    /// handing the blocks to the thread's spare pool. The table keeps its
    /// size.
    pub(crate) fn clear_block_cache(&mut self) {
        if !recycle(self.blocks.iter_mut().filter_map(Option::take)) {
            self.blocks.fill(None);
        }
        self.code_lo = u32::MAX;
        self.code_hi = 0;
    }

    /// Drains the block-cache statistics into the process-wide trace sinks.
    ///
    /// Counters are emitted unconditionally — a zero delta still creates
    /// the series — so a traced run always carries the `scf.bb.*` names.
    /// Accumulating in plain fields and flushing once per run keeps the
    /// block dispatch loop free of atomic loads.
    pub(crate) fn flush_bb_counters(&mut self) {
        f2_core::trace::counter("scf.bb.hits", self.bb_hits);
        f2_core::trace::counter("scf.bb.misses", self.bb_misses);
        f2_core::trace::counter("scf.bb.invalidations", self.bb_invalidations);
        f2_core::trace::counter("scf.bb.evictions", self.bb_evictions);
        self.bb_hits = 0;
        self.bb_misses = 0;
        self.bb_invalidations = 0;
        self.bb_evictions = 0;
        for len in self.bb_lens.drain(..) {
            f2_core::trace::observe("scf.bb.block_len", f64::from(len));
        }
    }

    /// Runs until `ecall`/`ebreak` or the step budget is exhausted.
    ///
    /// Architectural results and the final memory image are bit-identical
    /// to stepping [`Cpu::step`] in a loop; other memory views (with load
    /// side effects, say) are driven through `step`.
    ///
    /// # Errors
    ///
    /// Returns [`ScfError::Timeout`] if the budget runs out, and propagates
    /// decode/memory faults.
    pub fn run(&mut self, mem: &mut FlatMemory, max_instructions: u64) -> Result<RunStats> {
        // The caller may have rewritten memory since the previous call, so
        // compiled blocks cannot be trusted here.
        self.clear_block_cache();
        let mut instructions = 0;
        let mut cycles = 0;
        let exit = self.exec_blocks(
            mem,
            max_instructions,
            u64::MAX,
            &mut instructions,
            &mut cycles,
        );
        self.flush_bb_counters();
        match exit {
            BlockExit::Halt { reason, .. } => Ok(RunStats {
                halt: reason,
                instructions,
                cycles,
            }),
            BlockExit::InstrCap | BlockExit::CycleCap => Err(ScfError::Timeout),
            BlockExit::Fault(e) => Err(e),
            BlockExit::Yield { .. } => Err(ScfError::Yield),
        }
    }

    /// Executes one instruction through the plain interpreter: fetch,
    /// decode, execute. This is the reference semantics the block engine
    /// must match bit-for-bit; it touches no cache state.
    ///
    /// # Errors
    ///
    /// Propagates decode and memory faults.
    pub fn step(&mut self, mem: &mut impl Memory) -> Result<(Option<HaltReason>, u64)> {
        let word = mem.load_u32(self.pc)?;
        let instr = decode(word, self.pc)?;
        self.replay_boundary(instr, word, mem)
    }

    /// Replays one pre-decoded instruction (a shared-memory boundary hit
    /// during block execution) against the real, arbitrating memory view.
    pub(crate) fn replay_boundary(
        &mut self,
        instr: Instr,
        word: u32,
        mem: &mut impl Memory,
    ) -> Result<(Option<HaltReason>, u64)> {
        let mut hot = HotState::load(self);
        let before = hot.cycle;
        let event = self.exec_one(instr, || word, mem, &mut hot, self.cycle_model)?;
        hot.store(self);
        let halt = match event {
            Some(ExecEvent::Halt { reason }) => Some(reason),
            _ => None,
        };
        Ok((halt, hot.cycle - before))
    }

    /// Pre-evaluates a yielded boundary instruction when it is a plain
    /// aligned word load or store: address, stored value and cycle cost
    /// come straight from the (final) register file. Returns `None` for
    /// every other shape — sub-word or misaligned accesses keep the exact
    /// [`Cpu::replay_boundary`] semantics, including their fault text.
    pub(crate) fn resolve_boundary(&self, instr: Instr) -> Option<ResolvedBoundary> {
        match instr {
            Instr::Load {
                width: MemWidth::W,
                rd,
                rs1,
                offset,
            } => {
                let addr = self.reg(rs1).wrapping_add(offset as u32);
                addr.is_multiple_of(4).then_some(ResolvedBoundary {
                    addr,
                    op: BoundaryOp::LoadWord { rd },
                    cost: self.cycle_model.base + self.cycle_model.load_extra,
                })
            }
            Instr::Store {
                width: MemWidth::W,
                rs1,
                rs2,
                offset,
            } => {
                let addr = self.reg(rs1).wrapping_add(offset as u32);
                addr.is_multiple_of(4).then_some(ResolvedBoundary {
                    addr,
                    op: BoundaryOp::StoreWord {
                        value: self.reg(rs2),
                    },
                    cost: self.cycle_model.base,
                })
            }
            _ => None,
        }
    }

    /// Retires a boundary instruction whose data operation was applied
    /// externally (see [`Cpu::resolve_boundary`]): the exact epilogue
    /// [`Cpu::exec_one`] runs for a non-branching instruction.
    pub(crate) fn finish_boundary(&mut self, cost: u64) {
        self.pc = self.pc.wrapping_add(4);
        self.cycle_counter += cost;
        self.instret_counter += 1;
    }

    /// Runs through the block cache until a halt, a budget limit, a fault,
    /// or a [`ScfError::Yield`] from `mem`.
    ///
    /// `instructions` and `cycles` accumulate across the call; `cycles` is
    /// the core-local clock (the cluster seeds it with the core's next
    /// issue cycle so block execution runs ahead on the real timeline).
    /// Both budgets are checked before every instruction, and every
    /// instruction updates `self` exactly as the interpreter would, so
    /// mid-block faults, yields and budget stops leave architectural state
    /// bit-identical to a stepped execution.
    pub(crate) fn exec_blocks(
        &mut self,
        mem: &mut impl Memory,
        max_instructions: u64,
        max_cycles: u64,
        instructions: &mut u64,
        cycles: &mut u64,
    ) -> BlockExit {
        // `hot` is authoritative for the PC and the counters inside this
        // function; it syncs back into `self` at the single exit below and
        // around the interpreter fallback. The cycle model is immutable
        // during a run, so one copy serves the whole dispatch loop.
        let mut hot = HotState::load(self);
        let model = self.cycle_model;
        // The external budget counters advance in lockstep with
        // `hot.instret`/`hot.cycle`, so the loop maintains only the hot
        // pair and derives the externals from the entry offsets — two
        // counter increments per retired instruction instead of four,
        // written back once at the exit.
        let ins0 = *instructions;
        let cyc0 = *cycles;
        let hi0 = hot.instret;
        let hc0 = hot.cycle;
        let exit = 'run: loop {
            if ins0 + (hot.instret - hi0) >= max_instructions {
                break 'run BlockExit::InstrCap;
            }
            if cyc0 + (hot.cycle - hc0) >= max_cycles {
                break 'run BlockExit::CycleCap;
            }
            // Dispatch: probe the cache at the current PC, compile on miss.
            let mut slot = self.slot_of(hot.pc);
            let cached = matches!(&self.blocks[slot], Some(b) if b.entry_pc == hot.pc);
            if cached {
                self.bb_hits += 1;
            } else {
                match compile_block(hot.pc, mem) {
                    Err(_) => break 'run BlockExit::Yield { predecoded: None },
                    Ok(None) => {
                        // Not even one instruction compiles: take a plain
                        // interpreter step so the fault surfaces with its
                        // exact (pc, word) context.
                        hot.store(self);
                        match self.step(mem) {
                            Err(ScfError::Yield) => {
                                break 'run BlockExit::Yield { predecoded: None }
                            }
                            Err(e) => break 'run BlockExit::Fault(e),
                            Ok((halt, _cost)) => {
                                // The step ran on `self` directly, so
                                // reloading `hot` folds its cost and
                                // retirement into the mirrored deltas.
                                let issued_at = cyc0 + (hot.cycle - hc0);
                                hot = HotState::load(self);
                                if let Some(reason) = halt {
                                    break 'run BlockExit::Halt { reason, issued_at };
                                }
                                continue;
                            }
                        }
                    }
                    Ok(Some(block)) => {
                        self.bb_misses += 1;
                        self.bb_lens.push(block.instrs.len() as u32);
                        self.code_lo = self.code_lo.min(block.entry_pc);
                        self.code_hi = self.code_hi.max(block.end_pc);
                        slot = self.install(block);
                    }
                }
            }
            // Execute with the block taken out of its slot: stores hitting
            // *other* cached blocks invalidate them in place, while a store
            // into this block's own range aborts execution after the
            // current instruction and drops the block, so the modified tail
            // recompiles from the freshly written memory.
            let block = self.blocks[slot].take().expect("block was just cached");
            let mut reinstall = true;
            let mut exit = None;
            // Self-loop passes (the hot-loop shape below) are counted
            // locally and folded into `bb_hits` once at the end, keeping
            // the per-pass cost to a register increment.
            let mut loop_hits: u64 = 0;
            'exec: loop {
                for (i, &instr) in block.instrs.iter().enumerate() {
                    if ins0 + (hot.instret - hi0) >= max_instructions {
                        exit = Some(BlockExit::InstrCap);
                        break 'exec;
                    }
                    if cyc0 + (hot.cycle - hc0) >= max_cycles {
                        exit = Some(BlockExit::CycleCap);
                        break 'exec;
                    }
                    let cyc_before = hot.cycle;
                    match self.exec_one(instr, || block.words[i], mem, &mut hot, model) {
                        Ok(None) => {}
                        Ok(Some(ExecEvent::Store { addr, len })) => {
                            if overlaps(addr, len, self.code_lo, self.code_hi) {
                                self.invalidate_overlapping(addr, len);
                                if overlaps(addr, len, block.entry_pc, block.end_pc) {
                                    self.bb_invalidations += 1;
                                    reinstall = false;
                                    // Stores never halt, so execution can
                                    // stop here unconditionally; the
                                    // modified tail recompiles from the
                                    // freshly written memory.
                                    break 'exec;
                                }
                            }
                        }
                        Ok(Some(ExecEvent::Halt { reason })) => {
                            exit = Some(BlockExit::Halt {
                                reason,
                                issued_at: cyc0 + (cyc_before - hc0),
                            });
                            break 'exec;
                        }
                        Err(ScfError::Yield) => {
                            exit = Some(BlockExit::Yield {
                                predecoded: Some((instr, block.words[i])),
                            });
                            break 'exec;
                        }
                        Err(e) => {
                            exit = Some(BlockExit::Fault(e));
                            break 'exec;
                        }
                    }
                }
                // The block ran to its end. If its terminator branched back
                // to its own entry (the shape of every hot loop), re-enter
                // it directly and skip the dispatch probe entirely.
                if reinstall && hot.pc == block.entry_pc {
                    loop_hits += 1;
                    continue;
                }
                break;
            }
            self.bb_hits += loop_hits;
            if reinstall {
                self.blocks[slot] = Some(block);
            }
            if let Some(exit) = exit {
                break 'run exit;
            }
        };
        *instructions = ins0 + (hot.instret - hi0);
        *cycles = cyc0 + (hot.cycle - hc0);
        hot.store(self);
        exit
    }

    /// Table slot of the block entered at `pc`.
    fn slot_of(&self, pc: u32) -> usize {
        (pc >> 2) as usize & (self.blocks.len() - 1)
    }

    /// Caches a freshly compiled block and returns its slot. While that
    /// slot holds another block the table doubles, up to
    /// [`BB_CACHE_MAX_SLOTS`]; at the cap the occupant is evicted. Called
    /// on the miss path only, never while a block is out of its slot.
    fn install(&mut self, block: Box<BasicBlock>) -> usize {
        let mut slot = self.slot_of(block.entry_pc);
        while self.blocks[slot].is_some() {
            if self.blocks.len() == BB_CACHE_MAX_SLOTS {
                self.bb_evictions += 1;
                break;
            }
            self.grow();
            slot = self.slot_of(block.entry_pc);
        }
        self.blocks[slot] = Some(block);
        slot
    }

    /// Doubles the block table. The block in slot `i` of `n` moves to
    /// `i + n` when its entry word index has bit `log2 n` set, so no two
    /// blocks collide and nothing recompiles.
    fn grow(&mut self) {
        let n = self.blocks.len();
        self.blocks.resize_with(2 * n, || None);
        for i in 0..n {
            if let Some(b) = &self.blocks[i] {
                if (b.entry_pc >> 2) as usize & n != 0 {
                    self.blocks.swap(i, i + n);
                }
            }
        }
    }

    /// Drops every cached block overlapping the stored byte range. A block
    /// spans at most [`BB_MAX_LEN`] words, so only blocks entered in
    /// `(addr - 4·BB_MAX_LEN, addr + len)` can overlap it: probing the
    /// slots of those entry words finds exactly the blocks a scan of the
    /// whole table would, at a cost independent of the table size. The
    /// `[code_lo, code_hi)` cover stays conservative (it never shrinks
    /// here), which only costs a redundant probe on a later nearby store.
    fn invalidate_overlapping(&mut self, addr: u32, len: u32) {
        let first = (u64::from(addr) + 1).saturating_sub(4 * BB_MAX_LEN as u64) >> 2;
        let last = (u64::from(addr) + u64::from(len) - 1) >> 2;
        for word in first..=last {
            let slot = word as usize & (self.blocks.len() - 1);
            if let Some(block) = &self.blocks[slot] {
                if overlaps(addr, len, block.entry_pc, block.end_pc) {
                    self.blocks[slot] = None;
                    self.bb_invalidations += 1;
                }
            }
        }
    }

    /// Executes one already-decoded instruction. On `Ok` the PC and the
    /// `cycle`/`instret` counters advance; on `Err` all architectural state
    /// is untouched — which is what makes abort-and-replay at shared-memory
    /// boundaries exact.
    ///
    /// `inline(always)`: this is the body of the block-dispatch loop; as an
    /// outlined call the result and the decoded operands round-trip through
    /// memory on every retired instruction, which roughly doubles the
    /// interpreter's cost per instruction. The common case returns
    /// `Ok(None)` — one tag branch in the caller — and the raw instruction
    /// word is passed lazily because only the CSR arm (illegal-CSR
    /// diagnostics) ever needs it. The PC and the counters live in `hot`
    /// (see [`HotState`]) so the loop never touches them through
    /// `&mut self`.
    #[inline(always)]
    fn exec_one(
        &mut self,
        instr: Instr,
        word: impl FnOnce() -> u32,
        mem: &mut impl Memory,
        hot: &mut HotState,
        m: CycleModel,
    ) -> Result<Option<ExecEvent>> {
        let mut cost = m.base;
        let mut next_pc = hot.pc.wrapping_add(4);
        let mut event = None;

        match instr {
            Instr::Lui { rd, imm } => self.set_reg(rd, imm as u32),
            Instr::Auipc { rd, imm } => self.set_reg(rd, hot.pc.wrapping_add(imm as u32)),
            Instr::Jal { rd, offset } => {
                self.set_reg(rd, next_pc);
                next_pc = hot.pc.wrapping_add(offset as u32);
                cost += m.taken_branch_extra;
            }
            Instr::Jalr { rd, rs1, offset } => {
                let target = self.reg(rs1).wrapping_add(offset as u32) & !1;
                self.set_reg(rd, next_pc);
                next_pc = target;
                cost += m.taken_branch_extra;
            }
            Instr::Branch {
                cond,
                rs1,
                rs2,
                offset,
            } => {
                let (a, b) = (self.reg(rs1), self.reg(rs2));
                let taken = match cond {
                    BranchCond::Eq => a == b,
                    BranchCond::Ne => a != b,
                    BranchCond::Lt => (a as i32) < (b as i32),
                    BranchCond::Ge => (a as i32) >= (b as i32),
                    BranchCond::Ltu => a < b,
                    BranchCond::Geu => a >= b,
                };
                if taken {
                    next_pc = hot.pc.wrapping_add(offset as u32);
                    cost += m.taken_branch_extra;
                }
            }
            Instr::Load {
                width,
                rd,
                rs1,
                offset,
            } => {
                let addr = self.reg(rs1).wrapping_add(offset as u32);
                let value = match width {
                    MemWidth::B => mem.load_u8(addr)? as i8 as i32 as u32,
                    MemWidth::Bu => mem.load_u8(addr)? as u32,
                    MemWidth::H => mem.load_u16(addr)? as i16 as i32 as u32,
                    MemWidth::Hu => mem.load_u16(addr)? as u32,
                    MemWidth::W => mem.load_u32(addr)?,
                };
                self.set_reg(rd, value);
                cost += m.load_extra;
            }
            Instr::Store {
                width,
                rs1,
                rs2,
                offset,
            } => {
                let addr = self.reg(rs1).wrapping_add(offset as u32);
                let value = self.reg(rs2);
                let len = match width {
                    MemWidth::B | MemWidth::Bu => {
                        mem.store_u8(addr, value as u8)?;
                        1
                    }
                    MemWidth::H | MemWidth::Hu => {
                        mem.store_u16(addr, value as u16)?;
                        2
                    }
                    MemWidth::W => {
                        mem.store_u32(addr, value)?;
                        4
                    }
                };
                event = Some(ExecEvent::Store { addr, len });
            }
            Instr::OpImm { op, rd, rs1, imm } => {
                let value = alu(op, self.reg(rs1), imm as u32);
                self.set_reg(rd, value);
            }
            Instr::Op { op, rd, rs1, rs2 } => {
                let value = alu(op, self.reg(rs1), self.reg(rs2));
                self.set_reg(rd, value);
            }
            Instr::MulDiv { op, rd, rs1, rs2 } => {
                let (a, b) = (self.reg(rs1), self.reg(rs2));
                let value = muldiv(op, a, b);
                self.set_reg(rd, value);
                cost += match op {
                    MulDivOp::Mul | MulDivOp::Mulh | MulDivOp::Mulhsu | MulDivOp::Mulhu => {
                        m.mul_extra
                    }
                    _ => m.div_extra,
                };
            }
            Instr::Ecall => {
                event = Some(ExecEvent::Halt {
                    reason: HaltReason::Ecall,
                })
            }
            Instr::Ebreak => {
                event = Some(ExecEvent::Halt {
                    reason: HaltReason::Ebreak,
                })
            }
            Instr::Fence => {}
            // Counter CSRs are read-only; set/clear with x0 (and any write
            // form) leaves them unchanged in this model.
            Instr::Csr { rd, csr, .. } => {
                let old = self.csr_read(csr, hot, word())?;
                self.set_reg(rd, old);
            }
        }
        hot.pc = next_pc;
        hot.cycle += cost;
        hot.instret += 1;
        Ok(event)
    }
}

fn alu(op: AluOp, a: u32, b: u32) -> u32 {
    match op {
        AluOp::Add => a.wrapping_add(b),
        AluOp::Sub => a.wrapping_sub(b),
        AluOp::Sll => a.wrapping_shl(b & 31),
        AluOp::Slt => u32::from((a as i32) < (b as i32)),
        AluOp::Sltu => u32::from(a < b),
        AluOp::Xor => a ^ b,
        AluOp::Srl => a.wrapping_shr(b & 31),
        AluOp::Sra => ((a as i32).wrapping_shr(b & 31)) as u32,
        AluOp::Or => a | b,
        AluOp::And => a & b,
    }
}

fn muldiv(op: MulDivOp, a: u32, b: u32) -> u32 {
    match op {
        MulDivOp::Mul => a.wrapping_mul(b),
        MulDivOp::Mulh => (((a as i32 as i64) * (b as i32 as i64)) >> 32) as u32,
        MulDivOp::Mulhsu => (((a as i32 as i64) * (b as i64)) >> 32) as u32,
        MulDivOp::Mulhu => (((a as u64) * (b as u64)) >> 32) as u32,
        MulDivOp::Div => {
            if b == 0 {
                u32::MAX
            } else if a as i32 == i32::MIN && b as i32 == -1 {
                a // overflow case per spec
            } else {
                ((a as i32) / (b as i32)) as u32
            }
        }
        MulDivOp::Divu => a.checked_div(b).unwrap_or(u32::MAX),
        MulDivOp::Rem => {
            if b == 0 {
                a
            } else if a as i32 == i32::MIN && b as i32 == -1 {
                0
            } else {
                ((a as i32) % (b as i32)) as u32
            }
        }
        MulDivOp::Remu => {
            if b == 0 {
                a
            } else {
                a % b
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::asm;
    use crate::memory::FlatMemory;

    fn run_program(program: &[u32]) -> (Cpu, RunStats) {
        let mut mem = FlatMemory::with_program(0, program);
        let mut cpu = Cpu::new(0);
        let stats = cpu.run(&mut mem, 100_000).expect("program halts");
        (cpu, stats)
    }

    #[test]
    fn arithmetic_program() {
        let (cpu, stats) = run_program(&[
            asm::addi(1, 0, 21),
            asm::addi(2, 0, 2),
            asm::mul(3, 1, 2),
            asm::ecall(),
        ]);
        assert_eq!(cpu.reg(3), 42);
        assert_eq!(stats.halt, HaltReason::Ecall);
        assert_eq!(stats.instructions, 4);
    }

    #[test]
    fn x0_is_hardwired_zero() {
        let (cpu, _) = run_program(&[asm::addi(0, 0, 55), asm::ecall()]);
        assert_eq!(cpu.reg(0), 0);
    }

    #[test]
    fn fibonacci_loop() {
        // x1=a, x2=b, x3=n countdown; computes fib(10) in x1.
        let program = [
            asm::addi(1, 0, 0),  // a = 0
            asm::addi(2, 0, 1),  // b = 1
            asm::addi(3, 0, 10), // n = 10
            // loop:
            asm::add(4, 1, 2),   // t = a + b
            asm::addi(1, 2, 0),  // a = b
            asm::addi(2, 4, 0),  // b = t
            asm::addi(3, 3, -1), // n -= 1
            asm::bne(3, 0, -16), // loop while n != 0
            asm::ecall(),
        ];
        let (cpu, _) = run_program(&program);
        assert_eq!(cpu.reg(1), 55); // fib(10)
    }

    #[test]
    fn memory_store_load() {
        let program = [
            asm::addi(1, 0, 1234),
            asm::sw(1, 0, 0x100),
            asm::lw(2, 0, 0x100),
            asm::addi(3, 0, -1),
            asm::sb(3, 0, 0x200),
            asm::lbu(4, 0, 0x200),
            asm::lb(5, 0, 0x200),
            asm::ecall(),
        ];
        let (cpu, _) = run_program(&program);
        assert_eq!(cpu.reg(2), 1234);
        assert_eq!(cpu.reg(4), 0xFF);
        assert_eq!(cpu.reg(5), u32::MAX); // sign-extended
    }

    #[test]
    fn signed_unsigned_comparisons() {
        let program = [
            asm::addi(1, 0, -1),
            asm::addi(2, 0, 1),
            asm::slt(3, 1, 2),  // -1 < 1 signed => 1
            asm::sltu(4, 1, 2), // 0xFFFFFFFF < 1 unsigned => 0
            asm::ecall(),
        ];
        let (cpu, _) = run_program(&program);
        assert_eq!(cpu.reg(3), 1);
        assert_eq!(cpu.reg(4), 0);
    }

    #[test]
    fn shifts_and_logic() {
        let program = [
            asm::addi(1, 0, -8),
            asm::srai(2, 1, 1), // -4
            asm::srli(3, 1, 28),
            asm::slli(4, 1, 1), // -16
            asm::andi(5, 1, 0xF),
            asm::ecall(),
        ];
        let (cpu, _) = run_program(&program);
        assert_eq!(cpu.reg(2) as i32, -4);
        assert_eq!(cpu.reg(3), 0xF);
        assert_eq!(cpu.reg(4) as i32, -16);
        assert_eq!(cpu.reg(5), 8);
    }

    #[test]
    fn division_edge_cases() {
        let program = [
            asm::addi(1, 0, 7),
            asm::addi(2, 0, 0),
            asm::div(3, 1, 2),  // div by zero => -1
            asm::rem(4, 1, 2),  // rem by zero => dividend
            asm::divu(5, 1, 2), // => u32::MAX
            asm::ecall(),
        ];
        let (cpu, _) = run_program(&program);
        assert_eq!(cpu.reg(3), u32::MAX);
        assert_eq!(cpu.reg(4), 7);
        assert_eq!(cpu.reg(5), u32::MAX);
    }

    #[test]
    fn division_overflow_case() {
        let program = [
            asm::lui(1, 0x80000), // x1 = i32::MIN
            asm::addi(2, 0, -1),
            asm::div(3, 1, 2),
            asm::rem(4, 1, 2),
            asm::ecall(),
        ];
        let (cpu, _) = run_program(&program);
        assert_eq!(cpu.reg(3), i32::MIN as u32);
        assert_eq!(cpu.reg(4), 0);
    }

    #[test]
    fn jal_and_jalr_link() {
        let program = [
            asm::jal(1, 8),     // jump over the next instruction
            asm::addi(2, 0, 1), // skipped
            asm::addi(3, 0, 7),
            asm::ecall(),
        ];
        let (cpu, _) = run_program(&program);
        assert_eq!(cpu.reg(1), 4); // link = pc+4
        assert_eq!(cpu.reg(2), 0);
        assert_eq!(cpu.reg(3), 7);
    }

    #[test]
    fn mulh_variants() {
        let program = [
            asm::addi(1, 0, -2),
            asm::addi(2, 0, 3),
            asm::mulh(3, 1, 2),  // high bits of -6 => -1
            asm::mulhu(4, 1, 2), // high bits of (2^32-2)*3
            asm::ecall(),
        ];
        let (cpu, _) = run_program(&program);
        assert_eq!(cpu.reg(3), u32::MAX);
        assert_eq!(cpu.reg(4), 2); // ((2^32-2)*3) >> 32 = 2
    }

    #[test]
    fn cycle_model_charges_loads_and_branches() {
        let straight = run_program(&[asm::addi(1, 0, 1), asm::ecall()]).1;
        assert_eq!(straight.cycles, 2);
        let with_load = run_program(&[asm::lw(1, 0, 0), asm::ecall()]).1;
        assert_eq!(with_load.cycles, 3); // 1 + load_extra + ecall
        let with_div = run_program(&[asm::div(1, 2, 3), asm::ecall()]).1;
        assert_eq!(with_div.cycles, 9); // 1 + 7 + ecall
    }

    #[test]
    fn runaway_program_times_out() {
        // Infinite loop: jal x0, 0.
        let mut mem = FlatMemory::with_program(0, &[asm::jal(0, 0)]);
        let mut cpu = Cpu::new(0);
        assert_eq!(cpu.run(&mut mem, 1000), Err(ScfError::Timeout));
    }

    #[test]
    fn illegal_instruction_reported_with_pc() {
        let mut mem = FlatMemory::with_program(0, &[0xFFFF_FFFF]);
        let mut cpu = Cpu::new(0);
        match cpu.run(&mut mem, 10) {
            Err(ScfError::IllegalInstruction { pc, .. }) => assert_eq!(pc, 0),
            other => panic!("expected illegal instruction, got {other:?}"),
        }
    }

    #[test]
    fn fault_after_straight_line_prefix_reports_exact_pc() {
        // The block compiler stops before the undecodable word; the prefix
        // retires normally and the fault carries the interpreter's context.
        let mut mem = FlatMemory::with_program(0, &[asm::addi(1, 0, 3), 0xFFFF_FFFF]);
        let mut cpu = Cpu::new(0);
        match cpu.run(&mut mem, 10) {
            Err(ScfError::IllegalInstruction { pc, word }) => {
                assert_eq!(pc, 4);
                assert_eq!(word, 0xFFFF_FFFF);
            }
            other => panic!("expected illegal instruction, got {other:?}"),
        }
        assert_eq!(cpu.reg(1), 3);
    }

    #[test]
    fn cycle_csr_measures_elapsed_cycles() {
        // rdcycle; three addis; rdcycle; difference must be 4 cycles
        // (csr read is charged after the first read completes).
        let program = [
            asm::rdcycle(5),
            asm::addi(1, 0, 1),
            asm::addi(1, 1, 1),
            asm::addi(1, 1, 1),
            asm::rdcycle(6),
            asm::ecall(),
        ];
        let (cpu, _) = run_program(&program);
        assert_eq!(cpu.reg(6) - cpu.reg(5), 4);
    }

    #[test]
    fn instret_counts_instructions() {
        let program = [
            asm::rdinstret(5),
            asm::addi(1, 0, 7),
            asm::rdinstret(6),
            asm::ecall(),
        ];
        let (cpu, _) = run_program(&program);
        assert_eq!(cpu.reg(6) - cpu.reg(5), 2);
    }

    #[test]
    fn mhartid_reads_configured_id() {
        let mut mem = FlatMemory::with_program(0, &[asm::rdhartid(5), asm::ecall()]);
        let mut cpu = Cpu::new(0);
        cpu.set_hart_id(3);
        cpu.run(&mut mem, 10).expect("program halts");
        assert_eq!(cpu.reg(5), 3);
    }

    #[test]
    fn unknown_csr_is_illegal() {
        let mut mem = FlatMemory::with_program(0, &[asm::csrrs(5, 0x123, 0), asm::ecall()]);
        let mut cpu = Cpu::new(0);
        assert!(matches!(
            cpu.run(&mut mem, 10),
            Err(ScfError::IllegalInstruction { .. })
        ));
    }

    #[test]
    fn self_modifying_code_invalidates_cached_decode() {
        // Execute the instruction at pc 0 once (compiling it into a block),
        // overwrite it in memory, loop back, and check the new instruction
        // takes effect: the store invalidates the block covering pc 0.
        let mut mem = FlatMemory::new(64 * 1024);
        mem.store_u32(0x400, asm::addi(3, 0, 42)).expect("in range");
        let program = [
            asm::addi(3, 0, 1), // patch target
            asm::bne(4, 0, 20), // second pass: skip to ecall
            asm::lw(5, 0, 0x400),
            asm::sw(5, 0, 0),   // overwrite the instruction at pc 0
            asm::addi(4, 0, 1), // mark second pass
            asm::jal(0, -20),   // back to the patched instruction
            asm::ecall(),
        ];
        mem.load_program(0, &program);
        let mut cpu = Cpu::new(0);
        cpu.run(&mut mem, 10_000).expect("program halts");
        assert_eq!(cpu.reg(3), 42);
    }

    #[test]
    fn store_into_running_block_takes_effect_immediately() {
        // The store patches the very next instruction of its own block; the
        // interpreter (fetching every step) executes the patched word, so
        // the block engine must abort mid-block and recompile the tail.
        let mut mem = FlatMemory::new(64 * 1024);
        mem.store_u32(0x400, asm::addi(3, 0, 99)).expect("in range");
        let program = [
            asm::lw(5, 0, 0x400),
            asm::sw(5, 0, 8),   // patch the next instruction (byte 8)
            asm::addi(3, 0, 7), // replaced before it executes
            asm::ecall(),
        ];
        mem.load_program(0, &program);
        let mut cpu = Cpu::new(0);
        let stats = cpu.run(&mut mem, 100).expect("program halts");
        assert_eq!(cpu.reg(3), 99);
        assert_eq!(stats.instructions, 4);
    }

    #[test]
    fn loops_hit_the_block_cache() {
        // Ten-iteration fibonacci loop: entry block, loop-body block and
        // ecall block compile once each; every further iteration hits.
        let program = [
            asm::addi(1, 0, 0),
            asm::addi(2, 0, 1),
            asm::addi(3, 0, 10),
            asm::add(4, 1, 2),
            asm::addi(1, 2, 0),
            asm::addi(2, 4, 0),
            asm::addi(3, 3, -1),
            asm::bne(3, 0, -16),
            asm::ecall(),
        ];
        let mut mem = FlatMemory::with_program(0, &program);
        let mut cpu = Cpu::new(0);
        let mut instructions = 0;
        let mut cycles = 0;
        let exit = cpu.exec_blocks(&mut mem, u64::MAX, u64::MAX, &mut instructions, &mut cycles);
        assert!(matches!(exit, BlockExit::Halt { .. }));
        assert_eq!(cpu.bb_misses, 3);
        assert_eq!(cpu.bb_hits, 8);
        assert_eq!(cpu.reg(1), 55);
    }

    /// Runs `mem`'s program from pc 0 through the block engine, keeping the
    /// cache statistics (`run` would flush them).
    fn exec_to_halt(mem: &mut FlatMemory) -> Cpu {
        let mut cpu = Cpu::new(0);
        let (mut instructions, mut cycles) = (0, 0);
        let exit = cpu.exec_blocks(mem, u64::MAX, u64::MAX, &mut instructions, &mut cycles);
        assert!(matches!(exit, BlockExit::Halt { .. }), "{exit:?}");
        cpu
    }

    #[test]
    fn table_grows_until_the_hot_code_fits() {
        // Three passes over a 4 KiB loop body: 256 segments of three addis
        // and a `jal` to the next, four times what the initial 256 slots
        // cover. The table doubles instead of evicting, so each of the 260
        // blocks (entry, segments, tail, back jump, ecall) compiles once.
        const SEGMENTS: usize = 256;
        let mut program = vec![asm::addi(9, 0, 3), asm::jal(0, 4)];
        for _ in 0..SEGMENTS {
            program.extend([
                asm::addi(1, 1, 1),
                asm::addi(2, 2, 2),
                asm::addi(3, 3, 3),
                asm::jal(0, 4),
            ]);
        }
        let back = -4 * (program.len() as i32); // from the `jal` below to word 2
        program.extend([
            asm::addi(9, 9, -1),
            asm::beq(9, 0, 8),
            asm::jal(0, back),
            asm::ecall(),
        ]);
        let cpu = exec_to_halt(&mut FlatMemory::with_program(0, &program));
        assert_eq!(cpu.reg(1), 3 * SEGMENTS as u32);
        assert_eq!(cpu.bb_misses, SEGMENTS as u64 + 4);
        assert_eq!(cpu.bb_evictions, 0);
        assert_eq!(cpu.blocks.len(), 2048);
    }

    #[test]
    fn stores_invalidate_blocks_that_a_growth_moved() {
        // Every pass stores x8 into word 262, three words into a block
        // entered 1 KiB past the loop top, then flips x8 between
        // `addi x3, x3, 1` and `addi x2, x3, 1`. The two blocks share a
        // slot of the initial table, so pass 2 grows the table and moves
        // the far block; the stores of passes 2 and 3 must still find and
        // drop it, or a stale `addi` runs.
        let patch = asm::addi(3, 3, 1); // low 12 bits below 0x800
        let mut program = vec![
            asm::addi(9, 0, 3),
            asm::lui(8, (patch >> 12) as i32),
            asm::addi(8, 8, (patch & 0xFFF) as i32),
            asm::sw(8, 0, 4 * 262), // loop top: word 3
            asm::xori(8, 8, 0x80),  // flips the patch's rd: x3 <-> x2
            asm::jal(0, 4 * (259 - 5)),
        ];
        program.resize(259, asm::nop());
        program.extend([
            asm::addi(1, 1, 1),
            asm::nop(),
            asm::nop(),
            asm::nop(), // word 262, patched before each execution
            asm::addi(9, 9, -1),
            asm::bne(9, 0, 4 * (3 - 264)),
            asm::ecall(),
        ]);
        let cpu = exec_to_halt(&mut FlatMemory::with_program(0, &program));
        assert_eq!((cpu.reg(1), cpu.reg(2), cpu.reg(3)), (3, 2, 2));
        assert_eq!(cpu.blocks.len(), 2 * BB_CACHE_SLOTS);
        assert_eq!(cpu.bb_invalidations, 2);
    }

    #[test]
    fn table_stops_doubling_at_the_cap() {
        // Blocks entered at 0 and at 64 KiB share a slot at every size up
        // to the cap: the table grows to the cap once, then the later block
        // evicts the earlier one. The loop itself re-enters at 4, so the
        // evicted entry block is never needed again.
        let far = 64 * 1024;
        let mut mem = FlatMemory::new(2 * far as usize);
        mem.load_program(0, &[asm::addi(9, 0, 3), asm::jal(0, far - 4)]);
        mem.load_program(
            far as u32,
            &[
                asm::addi(9, 9, -1),
                asm::beq(9, 0, 8),
                asm::jal(0, -far - 4),
                asm::ecall(),
            ],
        );
        let cpu = exec_to_halt(&mut mem);
        assert_eq!(cpu.reg(9), 0);
        assert_eq!(cpu.blocks.len(), BB_CACHE_MAX_SLOTS);
        assert_eq!(cpu.bb_evictions, 1);
        assert_eq!(cpu.bb_misses, 5);
    }

    #[test]
    fn equality_ignores_block_cache_state() {
        let (warm, _) = run_program(&[asm::addi(1, 0, 7), asm::ecall()]);
        let mut cold = warm.clone();
        cold.clear_block_cache();
        assert_eq!(warm, cold);
    }

    #[test]
    fn memcpy_kernel() {
        // Copy 8 words from 0x400 to 0x500.
        let mut mem = FlatMemory::new(64 * 1024);
        for i in 0..8u32 {
            mem.store_u32(0x400 + i * 4, 0x1000 + i).expect("in range");
        }
        let program = [
            asm::addi(1, 0, 0x400), // src
            asm::addi(2, 0, 0x500), // dst
            asm::addi(3, 0, 8),     // count
            // loop:
            asm::lw(4, 1, 0),
            asm::sw(4, 2, 0),
            asm::addi(1, 1, 4),
            asm::addi(2, 2, 4),
            asm::addi(3, 3, -1),
            asm::bne(3, 0, -20),
            asm::ecall(),
        ];
        mem.load_program(0, &program);
        let mut cpu = Cpu::new(0);
        cpu.run(&mut mem, 10_000).expect("program halts");
        for i in 0..8u32 {
            assert_eq!(mem.load_u32(0x500 + i * 4).expect("in range"), 0x1000 + i);
        }
    }
}
