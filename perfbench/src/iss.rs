//! `iss_programs` and `iss_cluster`: generated RV32IM programs on the
//! `scf` simulators, one workload per engine so that each is bounded on
//! its own.
//!
//! `iss_programs` runs hart programs through `Cpu::run` on a
//! `FlatMemory`: arithmetic, mul/div and load/store loops whose hot code
//! ranges from a few basic blocks to far more than the 256-slot block
//! cache holds. `iss_cluster` runs cluster programs through
//! `MulticoreCluster::run`: `vector_add_program` and generated SPMD TCDM
//! kernels over varied core counts, bank counts and lengths.
//!
//! Programs are written in a small instruction list ([`I`]) that is both
//! encoded to RV32IM words and executed by [`Machine`], an interpreter
//! independent of the simulator, which gives every hart run its expected
//! registers, data memory and retired-instruction count.

use std::time::Instant;

use f2_core::rng::{rng_for, ChaCha8Rng, Rng};
use f2_scf::cpu::Cpu;
use f2_scf::isa::asm;
use f2_scf::memory::{FlatMemory, Memory};
use f2_scf::multicore::{
    vector_add_program, MulticoreCluster, MulticoreConfig, MulticoreReport, TCDM_BASE,
};

use crate::layers::{interleave, Counters};
use crate::outcome::{Outcome, RunConfig};
use crate::stats::{digest, median, peak_rss_mb, quantile_of, reset_peak_rss};

/// Hart memory size; code starts at 0, data at [`DATA_BASE`].
const HART_MEM: usize = 64 * 1024;
/// Base address of a hart program's data window.
const DATA_BASE: u32 = 0xC000;
/// Bytes of the data window a load/store program touches.
const DATA_BYTES: usize = 4096 + 8;
/// Instruction budget of one hart program (a ceiling, never reached).
const MAX_INSTRET: u64 = 50_000_000;

/// Work registers of generated code (`x8..=x23`).
const WORK: std::ops::RangeInclusive<u8> = 8..=23;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Alu {
    Add,
    Sub,
    Xor,
    Or,
    And,
    Sll,
    Srl,
    Sra,
    Slt,
    Sltu,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AluI {
    Addi,
    Xori,
    Ori,
    Andi,
    Slli,
    Srli,
    Srai,
    Slti,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum MulOp {
    Mul,
    Mulh,
    Mulhu,
    Div,
    Divu,
    Rem,
    Remu,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LoadOp {
    Lw,
    Lh,
    Lhu,
    Lb,
    Lbu,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum StoreOp {
    Sw,
    Sh,
    Sb,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Cond {
    Eq,
    Ne,
    Lt,
    Ge,
    Ltu,
    Geu,
}

/// One instruction of a generated program. Branch and jump targets are
/// instruction indices (one instruction per 32-bit word).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum I {
    Lui(u8, u32),
    R(Alu, u8, u8, u8),
    Imm(AluI, u8, u8, i32),
    M(MulOp, u8, u8, u8),
    Load(LoadOp, u8, u8, i32),
    Store(StoreOp, u8, u8, i32),
    Branch(Cond, u8, u8, usize),
    Jump(usize),
    Ecall,
}

/// RV32IM encoding of `program` (loaded at address 0).
fn encode(program: &[I]) -> Vec<u32> {
    let off = |at: usize, target: usize| (target as i32 - at as i32) * 4;
    program
        .iter()
        .enumerate()
        .map(|(at, &ins)| match ins {
            I::Lui(rd, hi) => asm::lui(rd, hi as i32),
            I::R(op, rd, a, b) => match op {
                Alu::Add => asm::add(rd, a, b),
                Alu::Sub => asm::sub(rd, a, b),
                Alu::Xor => asm::xor(rd, a, b),
                Alu::Or => asm::or(rd, a, b),
                Alu::And => asm::and(rd, a, b),
                Alu::Sll => asm::sll(rd, a, b),
                Alu::Srl => asm::srl(rd, a, b),
                Alu::Sra => asm::sra(rd, a, b),
                Alu::Slt => asm::slt(rd, a, b),
                Alu::Sltu => asm::sltu(rd, a, b),
            },
            I::Imm(op, rd, a, imm) => match op {
                AluI::Addi => asm::addi(rd, a, imm),
                AluI::Xori => asm::xori(rd, a, imm),
                AluI::Ori => asm::ori(rd, a, imm),
                AluI::Andi => asm::andi(rd, a, imm),
                AluI::Slli => asm::slli(rd, a, imm as u8),
                AluI::Srli => asm::srli(rd, a, imm as u8),
                AluI::Srai => asm::srai(rd, a, imm as u8),
                AluI::Slti => asm::slti(rd, a, imm),
            },
            I::M(op, rd, a, b) => match op {
                MulOp::Mul => asm::mul(rd, a, b),
                MulOp::Mulh => asm::mulh(rd, a, b),
                MulOp::Mulhu => asm::mulhu(rd, a, b),
                MulOp::Div => asm::div(rd, a, b),
                MulOp::Divu => asm::divu(rd, a, b),
                MulOp::Rem => asm::rem(rd, a, b),
                MulOp::Remu => asm::remu(rd, a, b),
            },
            I::Load(op, rd, base, o) => match op {
                LoadOp::Lw => asm::lw(rd, base, o),
                LoadOp::Lh => asm::lh(rd, base, o),
                LoadOp::Lhu => asm::lhu(rd, base, o),
                LoadOp::Lb => asm::lb(rd, base, o),
                LoadOp::Lbu => asm::lbu(rd, base, o),
            },
            I::Store(op, src, base, o) => match op {
                StoreOp::Sw => asm::sw(src, base, o),
                StoreOp::Sh => asm::sh(src, base, o),
                StoreOp::Sb => asm::sb(src, base, o),
            },
            I::Branch(c, a, b, t) => match c {
                Cond::Eq => asm::beq(a, b, off(at, t)),
                Cond::Ne => asm::bne(a, b, off(at, t)),
                Cond::Lt => asm::blt(a, b, off(at, t)),
                Cond::Ge => asm::bge(a, b, off(at, t)),
                Cond::Ltu => asm::bltu(a, b, off(at, t)),
                Cond::Geu => asm::bgeu(a, b, off(at, t)),
            },
            I::Jump(t) => asm::jal(0, off(at, t)),
            I::Ecall => asm::ecall(),
        })
        .collect()
}

/// Reference interpreter of generated programs: RV32IM semantics written
/// out directly, sharing no code with the simulator under test.
struct Machine {
    x: [u32; 32],
    data: Vec<u8>,
    instret: u64,
}

impl Machine {
    fn new() -> Self {
        Self {
            x: [0; 32],
            data: vec![0; DATA_BYTES],
            instret: 0,
        }
    }

    fn set(&mut self, rd: u8, v: u32) {
        if rd != 0 {
            self.x[rd as usize] = v;
        }
    }

    fn addr(&self, base: u8, off: i32) -> usize {
        (self.x[base as usize].wrapping_add(off as u32) - DATA_BASE) as usize
    }

    /// Executes one straight-line instruction (no control flow).
    fn exec(&mut self, ins: I) {
        let x = self.x;
        let r = |i: u8| x[i as usize];
        match ins {
            I::Lui(rd, hi) => self.set(rd, hi << 12),
            I::R(op, rd, a, b) => {
                let (a, b) = (r(a), r(b));
                let v = match op {
                    Alu::Add => a.wrapping_add(b),
                    Alu::Sub => a.wrapping_sub(b),
                    Alu::Xor => a ^ b,
                    Alu::Or => a | b,
                    Alu::And => a & b,
                    Alu::Sll => a << (b & 31),
                    Alu::Srl => a >> (b & 31),
                    Alu::Sra => ((a as i32) >> (b & 31)) as u32,
                    Alu::Slt => u32::from((a as i32) < (b as i32)),
                    Alu::Sltu => u32::from(a < b),
                };
                self.set(rd, v);
            }
            I::Imm(op, rd, a, imm) => {
                let a = r(a);
                let v = match op {
                    AluI::Addi => a.wrapping_add(imm as u32),
                    AluI::Xori => a ^ imm as u32,
                    AluI::Ori => a | imm as u32,
                    AluI::Andi => a & imm as u32,
                    AluI::Slli => a << imm,
                    AluI::Srli => a >> imm,
                    AluI::Srai => ((a as i32) >> imm) as u32,
                    AluI::Slti => u32::from((a as i32) < imm),
                };
                self.set(rd, v);
            }
            I::M(op, rd, a, b) => {
                let (a, b) = (r(a), r(b));
                let (sa, sb) = (a as i32, b as i32);
                let v = match op {
                    MulOp::Mul => a.wrapping_mul(b),
                    MulOp::Mulh => ((i64::from(sa) * i64::from(sb)) >> 32) as u32,
                    MulOp::Mulhu => ((u64::from(a) * u64::from(b)) >> 32) as u32,
                    MulOp::Div if b == 0 => u32::MAX,
                    MulOp::Div => sa.wrapping_div(sb) as u32,
                    MulOp::Divu if b == 0 => u32::MAX,
                    MulOp::Divu => a / b,
                    MulOp::Rem if b == 0 => a,
                    MulOp::Rem => sa.wrapping_rem(sb) as u32,
                    MulOp::Remu if b == 0 => a,
                    MulOp::Remu => a % b,
                };
                self.set(rd, v);
            }
            I::Load(op, rd, base, off) => {
                let at = self.addr(base, off);
                let d = &self.data;
                let v = match op {
                    LoadOp::Lw => u32::from_le_bytes([d[at], d[at + 1], d[at + 2], d[at + 3]]),
                    LoadOp::Lh => i16::from_le_bytes([d[at], d[at + 1]]) as i32 as u32,
                    LoadOp::Lhu => u32::from(u16::from_le_bytes([d[at], d[at + 1]])),
                    LoadOp::Lb => d[at] as i8 as i32 as u32,
                    LoadOp::Lbu => u32::from(d[at]),
                };
                self.set(rd, v);
            }
            I::Store(op, src, base, off) => {
                let at = self.addr(base, off);
                let bytes = r(src).to_le_bytes();
                let n = match op {
                    StoreOp::Sw => 4,
                    StoreOp::Sh => 2,
                    StoreOp::Sb => 1,
                };
                self.data[at..at + n].copy_from_slice(&bytes[..n]);
            }
            I::Branch(..) | I::Jump(_) | I::Ecall => unreachable!("control flow in exec"),
        }
    }

    /// Runs `program` from index 0 to its `ecall`.
    fn run(&mut self, program: &[I]) {
        let mut pc = 0;
        loop {
            self.instret += 1;
            match program[pc] {
                I::Ecall => return,
                I::Jump(t) => pc = t,
                I::Branch(c, a, b, t) => {
                    let (a, b) = (self.x[a as usize], self.x[b as usize]);
                    let taken = match c {
                        Cond::Eq => a == b,
                        Cond::Ne => a != b,
                        Cond::Lt => (a as i32) < (b as i32),
                        Cond::Ge => (a as i32) >= (b as i32),
                        Cond::Ltu => a < b,
                        Cond::Geu => a >= b,
                    };
                    pc = if taken { t } else { pc + 1 };
                }
                ins => {
                    self.exec(ins);
                    pc += 1;
                }
            }
        }
    }
}

/// Appends `li rd, value` (`lui` + `addi`, sign-corrected).
fn li(p: &mut Vec<I>, rd: u8, value: u32) {
    let lo = ((value << 20) as i32) >> 20;
    let hi = value.wrapping_sub(lo as u32) >> 12;
    p.push(I::Lui(rd, hi));
    p.push(I::Imm(AluI::Addi, rd, rd, lo));
}

/// What a hart program's loop body exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Integer ALU register and immediate ops.
    Alu,
    /// Multiplies, divides and remainders mixed with ALU ops.
    MulDiv,
    /// Loads and stores over a 4 KiB data window, mixed with ALU ops.
    Mem,
}

const KINDS: [Kind; 3] = [Kind::Alu, Kind::MulDiv, Kind::Mem];

/// Loop-body sizes in basic blocks: from a tight loop to hot code far
/// beyond the simulator's 256-slot block cache.
const FOOTPRINTS: [usize; 5] = [2, 12, 40, 150, 500];

fn work_reg(rng: &mut ChaCha8Rng) -> u8 {
    rng.gen_range(*WORK.start()..*WORK.end() + 1)
}

/// One straight-line body op for `kind`.
fn body_op(kind: Kind, rng: &mut ChaCha8Rng) -> I {
    let (rd, a, b) = (work_reg(rng), work_reg(rng), work_reg(rng));
    let alu = |rng: &mut ChaCha8Rng| {
        if rng.gen_bool(0.5) {
            const OPS: [Alu; 10] = [
                Alu::Add,
                Alu::Sub,
                Alu::Xor,
                Alu::Or,
                Alu::And,
                Alu::Sll,
                Alu::Srl,
                Alu::Sra,
                Alu::Slt,
                Alu::Sltu,
            ];
            I::R(OPS[rng.gen_range(0..OPS.len())], rd, a, b)
        } else {
            const OPS: [AluI; 8] = [
                AluI::Addi,
                AluI::Xori,
                AluI::Ori,
                AluI::Andi,
                AluI::Slli,
                AluI::Srli,
                AluI::Srai,
                AluI::Slti,
            ];
            let op = OPS[rng.gen_range(0..OPS.len())];
            let imm = match op {
                AluI::Slli | AluI::Srli | AluI::Srai => rng.gen_range(0..32i32),
                _ => rng.gen_range(-2048..2048i32),
            };
            I::Imm(op, rd, a, imm)
        }
    };
    match kind {
        Kind::Alu => alu(rng),
        Kind::MulDiv if rng.gen_bool(0.5) => {
            const OPS: [MulOp; 7] = [
                MulOp::Mul,
                MulOp::Mulh,
                MulOp::Mulhu,
                MulOp::Div,
                MulOp::Divu,
                MulOp::Rem,
                MulOp::Remu,
            ];
            I::M(OPS[rng.gen_range(0..OPS.len())], rd, a, b)
        }
        Kind::Mem if rng.gen_bool(0.5) => {
            // Addresses are x28 (data base + rolling index) + an offset
            // aligned to the access width.
            let (width, load, store) = match rng.gen_range(0..8u32) {
                0..=3 => (4, LoadOp::Lw, StoreOp::Sw),
                4 => (2, LoadOp::Lh, StoreOp::Sh),
                5 => (2, LoadOp::Lhu, StoreOp::Sh),
                6 => (1, LoadOp::Lb, StoreOp::Sb),
                _ => (1, LoadOp::Lbu, StoreOp::Sb),
            };
            let off = rng.gen_range(0..2048 / width) * width;
            if rng.gen_bool(0.7) {
                I::Load(load, rd, 28, off)
            } else {
                I::Store(store, a, 28, off)
            }
        }
        _ => alu(rng),
    }
}

/// A generated hart program with the results the reference model
/// computed for it.
pub struct HartProgram {
    /// Body kind.
    pub kind: Kind,
    /// Loop-body basic blocks.
    pub blocks: usize,
    /// Encoded program (loaded at address 0).
    pub words: Vec<u32>,
    /// Initial data-window bytes.
    pub data: Vec<u8>,
    /// Expected final `x8..=x23`.
    pub regs: [u32; 16],
    /// Expected digest of the final data window.
    pub data_digest: u64,
    /// Expected retired instructions, `ecall` included.
    pub instret: u64,
}

/// Generates one hart program of `kind` with `blocks` body blocks that
/// retires roughly `budget` instructions.
fn hart_program(seed: u64, label: &str, kind: Kind, blocks: usize, budget: u64) -> HartProgram {
    let mut rng = rng_for(seed, &format!("perfbench/iss/hart/{label}"));
    let mut p = Vec::new();
    for r in WORK {
        li(&mut p, r, rng.next_u32());
    }
    li(&mut p, 6, DATA_BASE);
    p.push(I::Imm(AluI::Addi, 7, 0, 0));
    let counter_at = p.len();
    li(&mut p, 5, 0); // patched below once the body length is known
    let top = p.len();
    if kind == Kind::Mem {
        p.push(I::Imm(AluI::Addi, 7, 7, 4));
        p.push(I::Imm(AluI::Andi, 7, 7, 2044));
        p.push(I::R(Alu::Add, 28, 6, 7));
    }
    for _ in 0..blocks {
        for _ in 0..rng.gen_range(2..7usize) {
            p.push(body_op(kind, &mut rng));
        }
        // Block end: an unconditional jump to the next block, or a
        // data-dependent branch over one conditional op.
        if rng.gen_bool(0.5) {
            p.push(I::Jump(p.len() + 1));
        } else {
            const CONDS: [Cond; 6] = [Cond::Eq, Cond::Ne, Cond::Lt, Cond::Ge, Cond::Ltu, Cond::Geu];
            let cond = CONDS[rng.gen_range(0..CONDS.len())];
            let (a, b) = (work_reg(&mut rng), work_reg(&mut rng));
            p.push(I::Branch(cond, a, b, p.len() + 2));
            p.push(body_op(kind, &mut rng));
        }
    }
    p.push(I::Imm(AluI::Addi, 5, 5, -1));
    let exit = p.len() + 2;
    p.push(I::Branch(Cond::Eq, 5, 0, exit));
    p.push(I::Jump(top));
    p.push(I::Ecall);
    let iters = (budget / (p.len() - top) as u64).max(1) as u32;
    let mut patch = Vec::new();
    li(&mut patch, 5, iters);
    p.splice(counter_at..counter_at + 2, patch);

    let mut data = vec![0u8; DATA_BYTES];
    for b in &mut data {
        *b = rng.next_u32() as u8;
    }
    let mut m = Machine::new();
    m.data.copy_from_slice(&data);
    m.run(&p);
    let mut regs = [0u32; 16];
    regs.copy_from_slice(&m.x[8..24]);
    HartProgram {
        kind,
        blocks,
        words: encode(&p),
        data,
        regs,
        data_digest: digest([m.data.as_slice()]),
        instret: m.instret,
    }
}

/// What a cluster program computes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum ClusterKernel {
    /// `f2_scf::multicore::vector_add_program`: `out[i] = a[i] + b[i]`.
    VectorAdd,
    /// A generated SPMD map `out[i] += f(a[i], b[i])`, repeated `reps`
    /// times, with elements dealt to harts cyclically or in blocks.
    Map {
        /// Straight-line `f` over `x12 = a[i]`, `x13 = b[i]` (result in
        /// `x12`, scratch `x14`, `x15`).
        f: Vec<I>,
        /// Passes over the vector.
        reps: u32,
        /// Contiguous per-hart blocks instead of a cyclic deal.
        blocked: bool,
    },
}

/// A generated cluster program with its inputs and expected output.
pub struct ClusterProgram {
    /// The cluster geometry.
    pub config: MulticoreConfig,
    /// What it computes.
    pub(crate) kernel: ClusterKernel,
    /// Vector length.
    pub n: usize,
    /// Encoded SPMD program.
    pub words: Vec<u32>,
    /// TCDM operands `a` (at word 0) and `b` (at word `n`).
    pub a: Vec<u32>,
    /// Second operand.
    pub b: Vec<u32>,
    /// Expected `out` (at word `2n`).
    pub expected: Vec<u32>,
}

/// Encodes a [`ClusterKernel::Map`] for `n` elements on `cores` harts.
fn map_program(f: &[I], n: usize, reps: u32, blocked: bool, cores: usize) -> Vec<I> {
    let mut p = Vec::new();
    p.push(I::Imm(AluI::Addi, 20, 0, 0)); // rep counter
    li(&mut p, 21, reps);
    p.push(I::Lui(6, TCDM_BASE >> 12)); // a
    li(&mut p, 31, n as u32);
    p.push(I::Imm(AluI::Slli, 7, 31, 2));
    p.push(I::R(Alu::Add, 28, 6, 7)); // b
    p.push(I::R(Alu::Add, 29, 28, 7)); // out
    let rep_top = p.len();
    if blocked {
        let chunk = n.div_ceil(cores) as u32;
        li(&mut p, 14, chunk);
        p.push(I::M(MulOp::Mul, 5, 10, 14)); // i = hart * chunk
        p.push(I::R(Alu::Add, 19, 5, 14)); // end = min(i + chunk, n)
        p.push(I::Branch(Cond::Ge, 31, 19, p.len() + 2));
        p.push(I::Imm(AluI::Addi, 19, 31, 0));
    } else {
        p.push(I::Imm(AluI::Addi, 5, 10, 0)); // i = hart
        p.push(I::Imm(AluI::Addi, 19, 31, 0)); // end = n
    }
    let top = p.len();
    let exit_at = p.len();
    p.push(I::Branch(Cond::Ge, 5, 19, 0)); // patched to `next_rep`
    p.push(I::Imm(AluI::Slli, 30, 5, 2));
    p.push(I::R(Alu::Add, 12, 6, 30));
    p.push(I::Load(LoadOp::Lw, 12, 12, 0));
    p.push(I::R(Alu::Add, 13, 28, 30));
    p.push(I::Load(LoadOp::Lw, 13, 13, 0));
    p.push(I::Imm(AluI::Addi, 14, 0, 0)); // f sees zeroed scratch
    p.push(I::Imm(AluI::Addi, 15, 0, 0));
    p.extend_from_slice(f);
    p.push(I::R(Alu::Add, 16, 29, 30));
    p.push(I::Load(LoadOp::Lw, 17, 16, 0));
    p.push(I::R(Alu::Add, 12, 17, 12));
    p.push(I::Store(StoreOp::Sw, 12, 16, 0));
    if blocked {
        p.push(I::Imm(AluI::Addi, 5, 5, 1));
    } else {
        p.push(I::R(Alu::Add, 5, 5, 11)); // i += harts
    }
    p.push(I::Jump(top));
    let next_rep = p.len();
    p[exit_at] = I::Branch(Cond::Ge, 5, 19, next_rep);
    p.push(I::Imm(AluI::Addi, 20, 20, 1));
    p.push(I::Branch(Cond::Lt, 20, 21, rep_top));
    p.push(I::Ecall);
    p
}

/// Evaluates a map kernel's `f` on one element pair.
fn eval_f(f: &[I], a: u32, b: u32) -> u32 {
    let mut m = Machine::new();
    m.x[12] = a;
    m.x[13] = b;
    for &ins in f {
        m.exec(ins);
    }
    m.x[12]
}

/// Generates one cluster program.
fn cluster_program(seed: u64, label: &str, vector_add: bool, budget: u64) -> ClusterProgram {
    let mut rng = rng_for(seed, &format!("perfbench/iss/cluster/{label}"));
    let cores = [1usize, 2, 4, 8, 16][rng.gen_range(0..5usize)];
    let banks = [4usize, 8, 16, 32, 64][rng.gen_range(0..5usize)];
    let n = if vector_add {
        rng.gen_range(64..1000usize)
    } else {
        rng.gen_range(64..1536usize)
    };
    let config = MulticoreConfig {
        cores,
        tcdm_banks: banks,
        tcdm_words_per_bank: (3 * n).div_ceil(banks),
        max_cycles: 50_000_000,
    };
    let a: Vec<u32> = (0..n).map(|_| rng.next_u32()).collect();
    let b: Vec<u32> = (0..n).map(|_| rng.next_u32()).collect();
    if vector_add {
        let expected = a.iter().zip(&b).map(|(x, y)| x.wrapping_add(*y)).collect();
        return ClusterProgram {
            config,
            kernel: ClusterKernel::VectorAdd,
            n,
            words: vector_add_program(n as u32),
            a,
            b,
            expected,
        };
    }
    let scratch = [12u8, 13, 14, 15];
    let f: Vec<I> = (0..rng.gen_range(1..9usize))
        .map(|_| {
            let pick = |rng: &mut ChaCha8Rng| scratch[rng.gen_range(0..4usize)];
            let (rd, x, y) = (pick(&mut rng), pick(&mut rng), pick(&mut rng));
            match rng.gen_range(0..6u32) {
                0 => I::R(Alu::Add, rd, x, y),
                1 => I::R(Alu::Xor, rd, x, y),
                2 => I::R(Alu::Sub, rd, x, y),
                3 => I::M(MulOp::Mul, rd, x, y),
                4 => I::Imm(AluI::Slli, rd, x, rng.gen_range(0..32i32)),
                _ => I::Imm(AluI::Addi, rd, x, rng.gen_range(-2048..2048i32)),
            }
        })
        .collect();
    let per_pass = (n * (14 + f.len())) as u64;
    let reps = (budget / per_pass).clamp(1, 64) as u32;
    let blocked = rng.gen_bool(0.5);
    let expected = a
        .iter()
        .zip(&b)
        .map(|(&x, &y)| eval_f(&f, x, y).wrapping_mul(reps))
        .collect();
    let words = encode(&map_program(&f, n, reps, blocked, cores));
    ClusterProgram {
        config,
        kernel: ClusterKernel::Map { f, reps, blocked },
        n,
        words,
        a,
        b,
        expected,
    }
}

/// The generated program set of one seed.
pub struct ProgramSet {
    /// Hart programs, one per (kind, footprint, variant).
    pub harts: Vec<HartProgram>,
    /// Cluster programs.
    pub clusters: Vec<ClusterProgram>,
}

/// Sizes of a program set.
#[derive(Debug, Clone, Copy)]
pub struct SetSize {
    /// Hart programs per (kind, footprint) pair.
    pub variants: usize,
    /// Instructions one hart program retires, roughly.
    pub hart_budget: u64,
    /// Vector-add cluster programs.
    pub vector_adds: usize,
    /// Generated map-kernel cluster programs.
    pub maps: usize,
    /// Instructions one map kernel retires, roughly.
    pub map_budget: u64,
}

/// The `iss_programs` program set: hart programs only.
pub const HART_SET: SetSize = SetSize {
    variants: 64,
    hart_budget: 30_000,
    vector_adds: 0,
    maps: 0,
    map_budget: 0,
};

/// The `iss_cluster` program set: cluster programs only.
pub const CLUSTER_SET: SetSize = SetSize {
    variants: 0,
    hart_budget: 0,
    vector_adds: 200,
    maps: 800,
    map_budget: 20_000,
};

/// Generates the program set for `seed`.
pub fn program_set(seed: u64, size: SetSize) -> ProgramSet {
    let mut harts = Vec::new();
    for kind in KINDS {
        for &blocks in &FOOTPRINTS {
            for v in 0..size.variants {
                let label = format!("{kind:?}/{blocks}/{v}");
                harts.push(hart_program(seed, &label, kind, blocks, size.hart_budget));
            }
        }
    }
    let clusters = (0..size.vector_adds)
        .map(|i| cluster_program(seed, &format!("vadd/{i}"), true, 0))
        .chain(
            (0..size.maps)
                .map(|i| cluster_program(seed, &format!("map/{i}"), false, size.map_budget)),
        )
        .collect();
    ProgramSet { harts, clusters }
}

/// Digest of a whole program set (the determinism self-test compares it).
pub fn set_digest(set: &ProgramSet) -> u64 {
    let mut parts: Vec<Vec<u8>> = Vec::new();
    for h in &set.harts {
        parts.push(h.words.iter().flat_map(|w| w.to_le_bytes()).collect());
        parts.push(h.data.clone());
    }
    for c in &set.clusters {
        parts.push(c.words.iter().flat_map(|w| w.to_le_bytes()).collect());
        parts.push(
            c.a.iter()
                .chain(&c.b)
                .flat_map(|w| w.to_le_bytes())
                .collect(),
        );
        parts.push(format!("{:?}", c.config).into_bytes());
    }
    digest(parts.iter().map(Vec::as_slice))
}

/// One timed program run: host seconds split by phase, retired
/// instructions and the simulated statistics.
struct RunTiming {
    setup_s: f64,
    run_s: f64,
    instret: u64,
    /// Simulated statistics, compared across passes for exact equality.
    stats: Vec<u64>,
}

/// Runs one hart program and checks it against the reference model.
fn run_hart(h: &HartProgram) -> Result<RunTiming, String> {
    let t0 = Instant::now();
    let mut mem = FlatMemory::new(HART_MEM);
    mem.load_program(0, &h.words);
    for (i, chunk) in h.data.chunks(4).enumerate() {
        let mut w = [0u8; 4];
        w[..chunk.len()].copy_from_slice(chunk);
        mem.store_u32(DATA_BASE + 4 * i as u32, u32::from_le_bytes(w))
            .map_err(|e| format!("data preload: {e}"))?;
    }
    let mut cpu = Cpu::new(0);
    let t1 = Instant::now();
    let stats = cpu
        .run(&mut mem, MAX_INSTRET)
        .map_err(|e| format!("run: {e}"))?;
    let t2 = Instant::now();
    let label = format!("{:?}/{} blocks", h.kind, h.blocks);
    if stats.instructions != h.instret {
        return Err(format!(
            "{label}: retired {} instructions, model says {}",
            stats.instructions, h.instret
        ));
    }
    for (i, want) in h.regs.iter().enumerate() {
        let got = cpu.reg(8 + i as u8);
        if got != *want {
            return Err(format!(
                "{label}: x{} = {got:#x}, model says {want:#x}",
                8 + i
            ));
        }
    }
    let mut data = vec![0u8; DATA_BYTES];
    for (i, b) in data.iter_mut().enumerate() {
        *b = mem
            .load_u8(DATA_BASE + i as u32)
            .map_err(|e| format!("readback: {e}"))?;
    }
    if digest([data.as_slice()]) != h.data_digest {
        return Err(format!("{label}: data memory differs from the model"));
    }
    Ok(RunTiming {
        setup_s: t1.duration_since(t0).as_secs_f64(),
        run_s: t2.duration_since(t1).as_secs_f64(),
        instret: stats.instructions,
        stats: vec![stats.instructions, stats.cycles],
    })
}

/// Builds a cluster for `c` with its operands preloaded.
fn build_cluster(c: &ClusterProgram) -> Result<MulticoreCluster, String> {
    let mut cluster =
        MulticoreCluster::spmd(c.config, &c.words).map_err(|e| format!("build: {e}"))?;
    let tcdm = cluster.tcdm_mut();
    for i in 0..c.n {
        tcdm.write_word(i, c.a[i])
            .map_err(|e| format!("preload: {e}"))?;
        tcdm.write_word(c.n + i, c.b[i])
            .map_err(|e| format!("preload: {e}"))?;
    }
    Ok(cluster)
}

/// Checks a finished cluster's output vector.
fn check_cluster(c: &ClusterProgram, cluster: &mut MulticoreCluster) -> Result<(), String> {
    for (i, want) in c.expected.iter().enumerate() {
        let got = cluster
            .tcdm_mut()
            .read_word(2 * c.n + i)
            .map_err(|e| format!("readback: {e}"))?;
        if got != *want {
            return Err(format!(
                "{:?} n={} on {} cores: out[{i}] = {got:#x}, expected {want:#x}",
                c.kernel, c.n, c.config.cores
            ));
        }
    }
    Ok(())
}

fn report_stats(r: &MulticoreReport) -> Vec<u64> {
    let mut v = vec![r.cycles, r.tcdm_accesses, r.conflict_stalls];
    v.extend(&r.instructions);
    v
}

/// Runs one cluster program and checks its output.
fn run_cluster(c: &ClusterProgram) -> Result<(RunTiming, MulticoreReport), String> {
    let t0 = Instant::now();
    let mut cluster = build_cluster(c)?;
    let t1 = Instant::now();
    let report = cluster.run().map_err(|e| format!("run: {e}"))?;
    let t2 = Instant::now();
    check_cluster(c, &mut cluster)?;
    let instret = report.instructions.iter().sum();
    Ok((
        RunTiming {
            setup_s: t1.duration_since(t0).as_secs_f64(),
            run_s: t2.duration_since(t1).as_secs_f64(),
            instret,
            stats: report_stats(&report),
        },
        report,
    ))
}

/// Totals of one pass over the program set.
#[derive(Default)]
struct Pass {
    /// Host seconds the pass took, checks included.
    wall_s: f64,
    hart_setup_s: f64,
    hart_run_s: f64,
    hart_instret: u64,
    cluster_build_s: f64,
    cluster_run_s: f64,
    cluster_instret: u64,
    tcdm_accesses: u64,
    conflict_stalls: u64,
    /// Per program, in set order (harts, then clusters): retired
    /// instructions and host seconds, set-up included (`None` if it failed).
    runs: Vec<Option<(u64, f64)>>,
}

/// Retired instructions and median run time (host seconds, set-up
/// included) over `passes` of each program in `range` that ran, so that
/// a run host noise slowed down moves neither the rates nor the
/// latency percentiles.
fn program_times(passes: &[Pass], range: std::ops::Range<usize>) -> Vec<(u64, f64)> {
    range
        .filter_map(|i| {
            let runs: Vec<(u64, f64)> = passes.iter().filter_map(|p| p.runs[i]).collect();
            let (instret, _) = *runs.first()?;
            Some((
                instret,
                median(&runs.iter().map(|r| r.1).collect::<Vec<_>>()),
            ))
        })
        .collect()
}

/// Simulated instructions per host second over the programs in `range`,
/// each program timed by its median run.
fn rate(passes: &[Pass], range: std::ops::Range<usize>) -> f64 {
    let times = program_times(passes, range);
    let instret: u64 = times.iter().map(|t| t.0).sum();
    instret as f64 / times.iter().map(|t| t.1).sum::<f64>()
}

/// Runs every program once. `reference` holds each program's simulated
/// statistics from the first pass; later passes must match them exactly.
fn pass(set: &ProgramSet, reference: &mut Vec<Vec<u64>>, out: &mut Outcome) -> Pass {
    let start = Instant::now();
    let mut p = Pass::default();
    let mut stats = Vec::with_capacity(set.harts.len() + set.clusters.len());
    for h in &set.harts {
        out.attempted += 1;
        match run_hart(h) {
            Ok(t) => {
                p.hart_setup_s += t.setup_s;
                p.hart_run_s += t.run_s;
                p.hart_instret += t.instret;
                p.runs.push(Some((t.instret, t.setup_s + t.run_s)));
                stats.push(t.stats);
            }
            Err(e) => {
                out.fail(format!("hart program {e}"));
                p.runs.push(None);
                stats.push(Vec::new());
            }
        }
    }
    for c in &set.clusters {
        out.attempted += 1;
        match run_cluster(c) {
            Ok((t, r)) => {
                p.cluster_build_s += t.setup_s;
                p.cluster_run_s += t.run_s;
                p.cluster_instret += t.instret;
                p.tcdm_accesses += r.tcdm_accesses;
                p.conflict_stalls += r.conflict_stalls;
                p.runs.push(Some((t.instret, t.setup_s + t.run_s)));
                stats.push(t.stats);
            }
            Err(e) => {
                out.fail(format!("cluster program {e}"));
                p.runs.push(None);
                stats.push(Vec::new());
            }
        }
    }
    p.wall_s = start.elapsed().as_secs_f64();
    if reference.is_empty() {
        *reference = stats;
    } else {
        for (i, (got, want)) in stats.iter().zip(reference.iter()).enumerate() {
            if !got.is_empty() && got != want {
                out.fail(format!(
                    "program {i}: simulated statistics differ from the first pass"
                ));
            }
        }
    }
    p
}

fn passes(
    set: &ProgramSet,
    seconds: f64,
    reference: &mut Vec<Vec<u64>>,
    out: &mut Outcome,
) -> Vec<Pass> {
    let start = Instant::now();
    let mut done = Vec::new();
    while done.is_empty() || start.elapsed().as_secs_f64() < seconds {
        done.push(pass(set, reference, out));
    }
    done
}

/// Cluster programs whose partitioned run is re-checked against
/// `run_lockstep` after the timed window.
const LOCKSTEP_SAMPLE: usize = 4;

/// Re-runs a sample of cluster programs (the smallest ones, lockstep is
/// slow) with `run_lockstep` and requires an identical report.
fn lockstep_check(set: &ProgramSet, out: &mut Outcome) {
    let mut order: Vec<&ClusterProgram> = set.clusters.iter().collect();
    order.sort_by_key(|c| c.words.len() * c.n);
    for c in order.into_iter().take(LOCKSTEP_SAMPLE) {
        out.attempted += 1;
        let result = build_cluster(c).and_then(|mut fast| {
            let mut slow = build_cluster(c)?;
            let a = fast.run().map_err(|e| format!("run: {e}"))?;
            let b = slow.run_lockstep().map_err(|e| format!("lockstep: {e}"))?;
            check_cluster(c, &mut slow)?;
            if a == b {
                Ok(())
            } else {
                Err(format!(
                    "{:?} on {} cores: run {a:?} != run_lockstep {b:?}",
                    c.kernel, c.config.cores
                ))
            }
        });
        if let Err(e) = result {
            out.fail(format!("lockstep check: {e}"));
        }
    }
}

/// Block-cache metrics from traced counters, per pass or round.
pub(crate) fn bb_metrics(counters: &Counters, per: f64, out: &mut Outcome) {
    let hits = counters.get("scf.bb.hits") as f64;
    let misses = counters.get("scf.bb.misses") as f64;
    let ratio = if hits + misses > 0.0 {
        hits / (hits + misses)
    } else {
        0.0
    };
    out.set("scf.bb.hit_ratio", ratio, "ratio");
    out.set(
        "scf.bb.invalidations",
        counters.get("scf.bb.invalidations") as f64 / per,
        "count",
    );
}

/// Runs an ISS workload on a program set of `size` (`HART_SET` is
/// `iss_programs`, `CLUSTER_SET` is `iss_cluster`).
pub fn run(cfg: RunConfig, size: SetSize) -> Outcome {
    run_with(cfg, || program_set(cfg.seed, size))
}

/// Runs the workload on the program set `make` builds. Generating the
/// programs and running the reference model is the benchmark's own work
/// and is not timed; `setup_s` is the program's set-up of each run
/// (`FlatMemory`, preload and `Cpu`, or `spmd` and TCDM preload), summed
/// per pass, median over the passes.
pub fn run_with(cfg: RunConfig, make: impl Fn() -> ProgramSet) -> Outcome {
    let mut out = Outcome::default();
    let set = make();
    let mut reference = Vec::new();
    let (harts, all) = (0..set.harts.len(), 0..set.harts.len() + set.clusters.len());
    let clusters = harts.end..all.end;
    let mips = |passes: &[Pass], out: &mut Outcome| {
        if !harts.is_empty() {
            out.set(
                "iss.hart_mips",
                rate(passes, harts.clone()) / 1e6,
                "instr/us",
            );
        }
        if !clusters.is_empty() {
            out.set(
                "iss.cluster_mips",
                rate(passes, clusters.clone()) / 1e6,
                "instr/us",
            );
        }
    };
    if !cfg.trace {
        reset_peak_rss();
        let plain = passes(&set, cfg.seconds, &mut reference, &mut out);
        let peak_rss = peak_rss_mb();
        lockstep_check(&set, &mut out);
        // Latency percentiles are over the programs (about a thousand, so
        // ten lie beyond the p99), each at its median run.
        let lat: Vec<f64> = program_times(&plain, all.clone())
            .iter()
            .map(|t| t.1 * 1e3)
            .collect();
        let runs = plain.iter().flat_map(|p| p.runs.iter().flatten()).count();
        let setups: Vec<f64> = plain
            .iter()
            .map(|p| p.hart_setup_s + p.cluster_build_s)
            .collect();
        out.set("setup_s", median(&setups), "s");
        out.set("throughput_per_s", rate(&plain, all), "1/s");
        mips(&plain, &mut out);
        out.set("p50_ms", quantile_of(&lat, 0.5), "ms");
        out.set("p99_ms", quantile_of(&lat, 0.99), "ms");
        out.set("iss.programs", lat.len() as f64, "count");
        out.set("iss.runs", runs as f64, "count");
        out.set("peak_rss_mb", peak_rss, "MiB");
        return out;
    }

    let (plain, traced, counters) =
        interleave(cfg.seconds, || pass(&set, &mut reference, &mut out));
    let n = traced.len() as f64;
    let sum = |f: fn(&Pass) -> f64| traced.iter().map(f).sum::<f64>();
    out.set("scf.cpu.busy_s", sum(|p| p.hart_run_s) / n, "s");
    out.set(
        "scf.cpu.instret",
        sum(|p| p.hart_instret as f64) / n,
        "count",
    );
    out.set("scf.multicore.build_s", sum(|p| p.cluster_build_s) / n, "s");
    out.set("scf.multicore.busy_s", sum(|p| p.cluster_run_s) / n, "s");
    out.set(
        "scf.multicore.instret",
        sum(|p| p.cluster_instret as f64) / n,
        "count",
    );
    out.set(
        "scf.tcdm.accesses",
        sum(|p| p.tcdm_accesses as f64) / n,
        "count",
    );
    out.set(
        "scf.tcdm.conflict_stalls",
        sum(|p| p.conflict_stalls as f64) / n,
        "count",
    );
    bb_metrics(&counters, n, &mut out);
    mips(&traced, &mut out);
    // Hart set-up (memory, preload, core) is measured but belongs to no
    // simulator layer; it is reported inside the unattributed share.
    let attributed = sum(|p| p.hart_run_s + p.cluster_build_s + p.cluster_run_s);
    out.set(
        "unattributed_frac",
        1.0 - attributed / sum(|p| p.wall_s),
        "ratio",
    );
    out.set(
        "trace_overhead_frac",
        rate(&plain, all.clone()) / rate(&traced, all) - 1.0,
        "ratio",
    );
    out
}
