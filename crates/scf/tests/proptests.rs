//! Property-based tests of the RV32IM ISS against host arithmetic.

use f2_scf::cpu::{Cpu, RunStats};
use f2_scf::error::ScfError;
use f2_scf::isa::{asm, decode};
use f2_scf::memory::{FlatMemory, Memory};

/// Loads an arbitrary 32-bit constant into `rd`: `lui` sets bits 31:12
/// and `addi` adds the sign-extended low 12 (bit 11 carried into the
/// upper part).
fn load_const(rd: u8, v: u32) -> [u32; 2] {
    let low = v & 0xFFF;
    let high = (v >> 12).wrapping_add((low >> 11) & 1) as i32;
    [
        asm::lui(rd, high),
        asm::addi(rd, rd, ((low as i32) << 20) >> 20),
    ]
}

/// Runs a 2-operand program: x1 = a; x2 = b; x3 = op(x1, x2); ecall.
fn run_binop(build: impl Fn(u8, u8, u8) -> u32, a: u32, b: u32) -> u32 {
    let mut program = Vec::new();
    program.extend(load_const(1, a));
    program.extend(load_const(2, b));
    program.push(build(3, 1, 2));
    program.push(asm::ecall());
    let mut mem = FlatMemory::with_program(0, &program);
    let mut cpu = Cpu::new(0);
    cpu.run(&mut mem, 100).expect("straight-line program halts");
    cpu.reg(3)
}

/// Word offsets of a `len`-word loop body that starts at word `top`.
/// Half the cases pack it; the other half spread it over more than the
/// 1 KiB a fresh hart's 256-slot block table covers: the body is cut into
/// segments joined by a `jal` over `nop` padding, and the first cut puts
/// the next segment exactly 256 words after `top`. That segment's block
/// then shares a slot with the loop top, so the table doubles mid-run and
/// moves it; a second cut adds random padding. The code stays below the
/// 2 KiB an `x0`-based store reaches.
fn body_layout(g: &mut f2_core::ptest::Gen, top: usize, len: usize) -> Vec<usize> {
    let mut at: Vec<usize> = (top..top + len).collect();
    if g.usize_in(0..2) == 1 {
        let first = g.usize_in(1..len);
        let second = g.usize_in(first..len);
        let pad = g.usize_in(1..128);
        for (i, w) in at.iter_mut().enumerate().skip(first) {
            *w += 256 - first + if i > second { pad } else { 0 };
        }
    }
    at
}

/// Assembles `prologue`, the loop `body` at the word offsets `at` (a `jal`
/// to the next body word and `nop`s bridge every gap), and the loop tail
/// `addi x9, x9, -1; bne x9, x0, <top>; ecall`.
fn assemble(prologue: &[u32], body: &[u32], at: &[usize]) -> Vec<u32> {
    let top = prologue.len();
    let mut program = prologue.to_vec();
    program.resize(at.last().map_or(top, |w| w + 1), asm::nop());
    for (i, (&w, &word)) in at.iter().zip(body).enumerate() {
        program[w] = word;
        if let Some(&next) = at.get(i + 1) {
            if next > w + 1 {
                program[w + 1] = asm::jal(0, 4 * (next - w - 1) as i32);
            }
        }
    }
    program.push(asm::addi(9, 9, -1));
    program.push(asm::bne(9, 0, -4 * (program.len() - top) as i32));
    program.push(asm::ecall());
    program
}

/// Where [`reference_run`] stopped, and the state it left.
struct Reference {
    out: Result<RunStats, ScfError>,
    retired: u64,
    regs: [u32; 32],
    pc: u32,
    mem: FlatMemory,
}

/// Runs `program` from pc 0 on a fresh hart per step (empty cache, fetch
/// and decode every time, the architectural state carried over by hand)
/// until a halt, a fault, or `budget` retired instructions.
fn reference_run(program: &[u32], budget: u64) -> Reference {
    let mut mem = FlatMemory::with_program(0, program);
    let mut regs = [0u32; 32];
    let mut pc = 0u32;
    let mut retired = 0u64;
    let mut cycles = 0u64;
    let out = loop {
        if retired >= budget {
            break Err(ScfError::Timeout);
        }
        let mut fresh = Cpu::new(pc);
        for (i, &v) in regs.iter().enumerate().skip(1) {
            fresh.set_reg(i as u8, v);
        }
        match fresh.step(&mut mem) {
            Err(e) => break Err(e),
            Ok((halt, cost)) => {
                retired += 1;
                cycles += cost;
                for (i, v) in regs.iter_mut().enumerate() {
                    *v = fresh.reg(i as u8);
                }
                pc = fresh.pc();
                if let Some(halt) = halt {
                    break Ok(RunStats {
                        halt,
                        instructions: retired,
                        cycles,
                    });
                }
            }
        }
    };
    Reference {
        out,
        retired,
        regs,
        pc,
        mem,
    }
}

f2_core::ptest! {
    /// Constant loading via lui+addi reproduces any 32-bit value.
    fn constant_loading_exact(g) {
        let v = g.u32();
        let got = run_binop(|rd, rs1, _| asm::add(rd, rs1, 0), v, 0);
        assert_eq!(got, v);
    }

    /// ALU register ops match host semantics.
    fn alu_matches_host(g) {
        let a = g.u32();
        let b = g.u32();
        assert_eq!(run_binop(asm::add, a, b), a.wrapping_add(b));
        assert_eq!(run_binop(asm::sub, a, b), a.wrapping_sub(b));
        assert_eq!(run_binop(asm::xor, a, b), a ^ b);
        assert_eq!(run_binop(asm::or, a, b), a | b);
        assert_eq!(run_binop(asm::and, a, b), a & b);
        assert_eq!(run_binop(asm::sltu, a, b), u32::from(a < b));
        assert_eq!(run_binop(asm::slt, a, b), u32::from((a as i32) < (b as i32)));
    }

    /// Shifts use the low 5 bits of the shift amount, as the spec demands.
    fn shifts_match_host(g) {
        let a = g.u32();
        let b = g.u32();
        assert_eq!(run_binop(asm::sll, a, b), a.wrapping_shl(b & 31));
        assert_eq!(run_binop(asm::srl, a, b), a.wrapping_shr(b & 31));
        assert_eq!(
            run_binop(asm::sra, a, b),
            ((a as i32).wrapping_shr(b & 31)) as u32
        );
    }

    /// M-extension matches host semantics, including the division edge cases.
    fn muldiv_matches_host(g) {
        let a = g.u32();
        let b = g.u32();
        assert_eq!(run_binop(asm::mul, a, b), a.wrapping_mul(b));
        assert_eq!(
            run_binop(asm::mulhu, a, b),
            (((a as u64) * (b as u64)) >> 32) as u32
        );
        let div = if b == 0 {
            u32::MAX
        } else if a as i32 == i32::MIN && b as i32 == -1 {
            a
        } else {
            ((a as i32) / (b as i32)) as u32
        };
        assert_eq!(run_binop(asm::div, a, b), div);
        let remu = if b == 0 { a } else { a % b };
        assert_eq!(run_binop(asm::remu, a, b), remu);
    }

    /// Every encoder output decodes back to *something* (no illegal
    /// encodings escape the assembler).
    fn encoders_always_decode(g) {
        let rd = g.u8() % 32;
        let rs1 = g.u8() % 32;
        let rs2 = g.u8() % 32;
        let imm = g.i32_in(-2048..2048);
        for word in [
            asm::add(rd, rs1, rs2),
            asm::sub(rd, rs1, rs2),
            asm::mul(rd, rs1, rs2),
            asm::addi(rd, rs1, imm),
            asm::lw(rd, rs1, imm),
            asm::sw(rs2, rs1, imm),
            asm::jalr(rd, rs1, imm),
        ] {
            assert!(decode(word, 0).is_ok(), "word {word:#010x} failed to decode");
        }
    }

    /// The basic-block compiler is semantically invisible: running a random
    /// *looping* program on one long-lived hart (compiled blocks reused
    /// across iterations) matches [`reference_run`], which fetches and
    /// decodes afresh every step — instruction for instruction, cycle for
    /// cycle, down to the final PC. The loop body includes stores into its
    /// own instruction words, so later iterations re-execute blocks an
    /// earlier pass has patched: the invalidation rule, not just cold
    /// decode, is under test. Spread bodies (see [`body_layout`]) grow the
    /// block table mid-run, so those stores also patch blocks that a growth
    /// moved. Half the cases cut the budget below the instruction count of
    /// the unbounded run, so the engine must stop inside a block exactly
    /// where stepping stops.
    fn block_compiler_invisible(g) {
        let len = g.usize_in(4..32);
        // x9 = passes; x8 = a valid instruction word; loop: xori x8, 0x80;
        // <len - 1 random body words>; addi x9,-1; bne x9, x0, loop; ecall.
        // Body registers stay below x8, so the x9 countdown survives —
        // though a patched-in garbage word may fault or a forward branch
        // may skip the decrement; both sides must then fail identically
        // (fault or budget timeout). Patches with x8 keep the program
        // running, and the `xori` flips their destination register every
        // pass, so each pass patches in a different word and a stale block
        // would show. The data window at DATA lies beyond the code of a
        // spread body.
        const DATA: i32 = 0x700;
        let passes = g.i32_in(2..4);
        let patch = asm::addi(1 + g.u8() % 7, 1 + g.u8() % 7, g.i32_in(-16..16));
        let mut prologue = vec![asm::addi(9, 0, passes)];
        prologue.extend(load_const(8, patch));
        let at = body_layout(g, prologue.len(), len);
        let mut body = vec![asm::xori(8, 8, 0x80)];
        for _ in 1..len {
            let rd = 1 + (g.u8() % 7);
            let rs1 = g.u8() % 8;
            let rs2 = g.u8() % 8;
            // Self-modifying store into a body word, so an already-executed
            // block gets patched.
            let target = at[g.usize_in(1..len)];
            let smc = |src| asm::sw(src, 0, 4 * target as i32);
            let word = match g.usize_in(0..9) {
                0 => asm::add(rd, rs1, rs2),
                1 => asm::mul(rd, rs1, rs2),
                2 => asm::sltu(rd, rs1, rs2),
                3 => asm::sw(rs2, 0, DATA + 4 * (rs1 as i32 % 8)),
                4 => asm::lw(rd, 0, DATA + 4 * (rs2 as i32 % 8)),
                // One patch in four writes a body register's value,
                // typically a garbage word.
                5 | 6 => smc(if g.usize_in(0..4) == 0 { rs2 } else { 8 }),
                // Forward branch over the next instruction.
                7 => asm::bne(rs1, rs2, 8),
                _ => asm::addi(rd, rs1, g.i32_in(-16..16)),
            };
            body.push(word);
        }
        let program = assemble(&prologue, &body, &at);
        let mut budget = 4 * (passes as u64 + 1) * program.len() as u64 + 16;
        if g.usize_in(0..2) == 1 {
            budget = g.u64_in(0..reference_run(&program, budget).retired.max(1));
        }
        let want = reference_run(&program, budget);

        // Cached run: one hart end to end.
        let mut mem = FlatMemory::with_program(0, &program);
        let mut cached = Cpu::new(0);
        assert_eq!(cached.run(&mut mem, budget), want.out, "budget {budget}");
        assert_eq!(cached.pc(), want.pc, "pc diverged");
        for i in 0..32u8 {
            assert_eq!(cached.reg(i), want.regs[i as usize], "register x{i} diverged");
        }
        let mut want_mem = want.mem;
        for addr in (DATA as u32..DATA as u32 + 32).step_by(4) {
            assert_eq!(
                mem.load_u32(addr).expect("in range"),
                want_mem.load_u32(addr).expect("in range"),
                "data word at {addr:#x} diverged"
            );
        }
    }

    /// Partitioned stepping reproduces the lockstep reference exactly for
    /// random SPMD programs at 1/2/8 cores: the `MulticoreReport`, every
    /// core's architectural state, and the shared-TCDM image are all
    /// bit-identical. The loop body mixes word, byte and half-word TCDM
    /// traffic (hart-strided, so banks genuinely conflict) with private
    /// scratch accesses. Spread bodies (see [`body_layout`]) grow each
    /// core's block table mid-run, between boundary yields after which the
    /// next instruction starts a block of its own. Half the cases also run
    /// both engines under a cycle budget below the lockstep run's cycle
    /// count, and both must stop with the same result. Up to three
    /// straight-line instructions precede the final `ecall`, and half the
    /// budgets fall in the last 8 cycles, so a core can reach the budget
    /// inside the block that halts it.
    fn partitioned_stepping_matches_lockstep(g) {
        use f2_scf::multicore::{MulticoreCluster, MulticoreConfig, TCDM_BASE};
        let cores = [1usize, 2, 8][g.usize_in(0..3)];
        let banks = [1usize, 2, 4, 8][g.usize_in(0..4)];
        let body_len = g.usize_in(3..10);
        let passes = g.i32_in(1..8);
        // Prologue: x9 = countdown, x6 = TCDM_BASE + 4*hart (a0 = hart id).
        let prologue = [
            asm::addi(9, 0, passes),
            asm::lui(6, (TCDM_BASE >> 12) as i32),
            asm::slli(7, 10, 2),
            asm::add(6, 6, 7),
        ];
        let at = body_layout(g, prologue.len(), body_len);
        let mut body = Vec::with_capacity(body_len);
        for _ in 0..body_len {
            let rd = 1 + (g.u8() % 5); // x1..x5: x6/x7/x9..x11 preserved
            let rs1 = g.u8() % 8;
            let rs2 = g.u8() % 8;
            let word = match g.usize_in(0..10) {
                0 => asm::add(rd, rs1, rs2),
                1 => asm::mul(rd, rs1, rs2),
                2 => asm::lw(rd, 6, 4 * g.i32_in(0..16)),
                3 => asm::sw(rs2, 6, 4 * g.i32_in(0..16)),
                4 => asm::lbu(rd, 6, g.i32_in(0..64)),
                5 => asm::sb(rs2, 6, g.i32_in(0..64)),
                6 => asm::lhu(rd, 6, 2 * g.i32_in(0..32)),
                7 => asm::sh(rs2, 6, 2 * g.i32_in(0..32)),
                // Private scratch, beyond the code of a spread body.
                8 => asm::sw(rs2, 0, 0x700 + 4 * (rs1 as i32 % 8)),
                _ => asm::addi(rd, rs1, g.i32_in(-16..16)),
            };
            body.push(word);
        }
        let mut program = assemble(&prologue, &body, &at);
        for _ in 0..g.usize_in(0..4) {
            program.insert(program.len() - 1, asm::addi(1, 1, 1));
        }

        let cluster = |max_cycles| {
            let cfg = MulticoreConfig {
                cores,
                tcdm_banks: banks,
                tcdm_words_per_bank: 512 / banks,
                max_cycles,
            };
            let mut cluster = MulticoreCluster::spmd(cfg, &program).expect("valid config");
            for i in 0..64usize {
                cluster.tcdm_mut().write_word(i, (11 * i) as u32).expect("in range");
            }
            cluster
        };
        let mut fast = cluster(1_000_000);
        let mut reference = cluster(1_000_000);
        let a = fast.run().expect("SPMD program halts");
        let b = reference.run_lockstep().expect("SPMD program halts");
        assert_eq!(a, b, "cores={cores} banks={banks}");
        for hart in 0..cores {
            assert_eq!(fast.cpu(hart), reference.cpu(hart), "hart {hart} state");
        }
        for idx in 0..512usize {
            assert_eq!(
                fast.tcdm_mut().read_word(idx).expect("in range"),
                reference.tcdm_mut().read_word(idx).expect("in range"),
                "TCDM word {idx}"
            );
        }
        if g.usize_in(0..2) == 1 {
            let span = if g.usize_in(0..2) == 1 { b.cycles } else { b.cycles.min(8) };
            let cap = b.cycles - 1 - g.u64_in(0..span);
            let capped = cluster(cap).run();
            assert_eq!(capped, cluster(cap).run_lockstep(), "max_cycles={cap}");
        }
    }

    /// Memory round-trip through the ISS store/load path.
    fn store_load_round_trip(g) {
        let v = g.u32();
        let mut program = load_const(1, v).to_vec();
        program.push(asm::sw(1, 0, 0x400));
        program.push(asm::lw(2, 0, 0x400));
        program.push(asm::ecall());
        let mut mem = FlatMemory::with_program(0, &program);
        let mut cpu = Cpu::new(0);
        cpu.run(&mut mem, 100).expect("program halts");
        assert_eq!(cpu.reg(2), v);
    }
}
