//! The interpreting CPU for the bytecode ISA.

use crate::devices::DeviceState;
use crate::error::{VmError, VmResult};
use crate::exit::VmExit;
use crate::machine::{CpuAction, CpuCore};
use crate::mem::GuestMemory;

use super::isa::{Instruction, Reg, NUM_REGS};

/// Longest possible instruction encoding, in bytes.
const MAX_INSTRUCTION_LEN: usize = 11;

/// Register index conventionally used as the stack pointer.
pub const STACK_POINTER: usize = 15;

/// Interpreting CPU: 16 general-purpose 64-bit registers, a program counter
/// and a single comparison flag.
#[derive(Debug, Clone)]
pub struct BytecodeCpu {
    regs: [u64; NUM_REGS],
    pc: u64,
    /// Result of the last `cmp`: -1 (less), 0 (equal), 1 (greater).
    flag: i8,
    halted: bool,
}

impl BytecodeCpu {
    /// Creates a CPU with the program counter at `entry` and cleared registers.
    pub fn new(entry: u64) -> BytecodeCpu {
        BytecodeCpu {
            regs: [0u64; NUM_REGS],
            pc: entry,
            flag: 0,
            halted: false,
        }
    }

    /// Checks that the entry point lies inside the loaded code region.
    pub fn validate_entry(&self, entry: u64, load_addr: u64, code_len: u64) -> VmResult<()> {
        if entry < load_addr || entry >= load_addr + code_len.max(1) {
            return Err(VmError::InvalidImage(format!(
                "entry {entry:#x} outside code [{load_addr:#x}, {:#x})",
                load_addr + code_len
            )));
        }
        Ok(())
    }

    /// Current program counter (for tests and diagnostics).
    pub fn pc(&self) -> u64 {
        self.pc
    }

    /// Reads a register value (for tests and diagnostics).
    pub fn reg(&self, idx: usize) -> u64 {
        self.regs[idx]
    }

    fn fetch(&self, mem: &mut GuestMemory) -> VmResult<(Instruction, u64)> {
        let available = (mem.size().saturating_sub(self.pc)) as usize;
        let window = available.min(MAX_INSTRUCTION_LEN);
        if window == 0 {
            return Err(VmError::IllegalInstruction {
                pc: self.pc,
                opcode: 0xff,
            });
        }
        let bytes = mem.read_vec(self.pc, window)?;
        // Decode relative to the window, reporting absolute pc in errors.
        Instruction::decode(&bytes, 0).map_err(|e| match e {
            VmError::IllegalInstruction { opcode, .. } => VmError::IllegalInstruction {
                pc: self.pc,
                opcode,
            },
            other => other,
        })
    }

    fn binop(&mut self, rd: Reg, rs: Reg, f: impl Fn(u64, u64) -> u64) {
        self.regs[rd.index()] = f(self.regs[rd.index()], self.regs[rs.index()]);
    }
}

/// A stack access's error: a miss stays a miss (the step resumes once the
/// bytes arrive), anything else is the guest's stack fault.
fn stack_error(pc: u64) -> impl Fn(VmError) -> VmError {
    move |error| match error {
        VmError::Miss => VmError::Miss,
        _ => VmError::StackFault { pc },
    }
}

/// One step changes nothing before it can no longer miss: every side effect
/// (a register, the flag, the pc, a device queue or counter, a byte) comes
/// after the last access that can be a [`VmError::Miss`], so a refused step
/// resumes in place once the missing bytes are supplied.  `recv` and
/// `diskrd`, which would otherwise consume input before writing memory,
/// probe their destination first (`GuestMemory::probe_write`).
impl CpuCore for BytecodeCpu {
    fn step(&mut self, mem: &mut GuestMemory, dev: &mut DeviceState) -> VmResult<CpuAction> {
        if self.halted {
            return Err(VmError::Halted);
        }
        let (ins, len) = self.fetch(mem)?;
        let pc = self.pc;
        let next = pc + len;
        let mut outputs: Vec<VmExit> = Vec::new();

        match ins {
            Instruction::Halt => {
                self.halted = true;
                return Ok(CpuAction::Pause {
                    exit: VmExit::Halted,
                    outputs,
                });
            }
            Instruction::MovImm(rd, imm) => self.regs[rd.index()] = imm,
            Instruction::Mov(rd, rs) => self.regs[rd.index()] = self.regs[rs.index()],
            Instruction::Add(rd, rs) => self.binop(rd, rs, |a, b| a.wrapping_add(b)),
            Instruction::Sub(rd, rs) => self.binop(rd, rs, |a, b| a.wrapping_sub(b)),
            Instruction::Mul(rd, rs) => self.binop(rd, rs, |a, b| a.wrapping_mul(b)),
            Instruction::Div(rd, rs) => {
                if self.regs[rs.index()] == 0 {
                    return Err(VmError::DivisionByZero { pc });
                }
                self.binop(rd, rs, |a, b| a / b);
            }
            Instruction::Mod(rd, rs) => {
                if self.regs[rs.index()] == 0 {
                    return Err(VmError::DivisionByZero { pc });
                }
                self.binop(rd, rs, |a, b| a % b);
            }
            Instruction::And(rd, rs) => self.binop(rd, rs, |a, b| a & b),
            Instruction::Or(rd, rs) => self.binop(rd, rs, |a, b| a | b),
            Instruction::Xor(rd, rs) => self.binop(rd, rs, |a, b| a ^ b),
            Instruction::Shl(rd, rs) => self.binop(rd, rs, |a, b| a.wrapping_shl((b & 63) as u32)),
            Instruction::Shr(rd, rs) => self.binop(rd, rs, |a, b| a.wrapping_shr((b & 63) as u32)),
            Instruction::AddImm(rd, imm) => {
                self.regs[rd.index()] = self.regs[rd.index()].wrapping_add(imm)
            }
            Instruction::Cmp(r1, r2) => {
                let (a, b) = (self.regs[r1.index()], self.regs[r2.index()]);
                self.flag = match a.cmp(&b) {
                    core::cmp::Ordering::Less => -1,
                    core::cmp::Ordering::Equal => 0,
                    core::cmp::Ordering::Greater => 1,
                };
            }
            Instruction::Jmp(a) => {
                self.pc = a;
                return Ok(CpuAction::Ran { cost: 1, outputs });
            }
            Instruction::Jeq(a) => {
                self.pc = if self.flag == 0 { a } else { next };
                return Ok(CpuAction::Ran { cost: 1, outputs });
            }
            Instruction::Jne(a) => {
                self.pc = if self.flag != 0 { a } else { next };
                return Ok(CpuAction::Ran { cost: 1, outputs });
            }
            Instruction::Jlt(a) => {
                self.pc = if self.flag < 0 { a } else { next };
                return Ok(CpuAction::Ran { cost: 1, outputs });
            }
            Instruction::Jge(a) => {
                self.pc = if self.flag >= 0 { a } else { next };
                return Ok(CpuAction::Ran { cost: 1, outputs });
            }
            Instruction::Load(rd, rs, off) => {
                let addr = self.regs[rs.index()].wrapping_add(off);
                self.regs[rd.index()] = mem.read_u64(addr)?;
            }
            Instruction::Store(rv, ra, off) => {
                let addr = self.regs[ra.index()].wrapping_add(off);
                mem.write_u64(addr, self.regs[rv.index()])?;
            }
            Instruction::LoadB(rd, rs, off) => {
                let addr = self.regs[rs.index()].wrapping_add(off);
                self.regs[rd.index()] = mem.read_u8(addr)? as u64;
            }
            Instruction::StoreB(rv, ra, off) => {
                let addr = self.regs[ra.index()].wrapping_add(off);
                mem.write_u8(addr, self.regs[rv.index()] as u8)?;
            }
            Instruction::Push(rs) => {
                let sp = self.regs[STACK_POINTER].wrapping_sub(8);
                mem.write_u64(sp, self.regs[rs.index()])
                    .map_err(stack_error(pc))?;
                self.regs[STACK_POINTER] = sp;
            }
            Instruction::Pop(rd) => {
                let sp = self.regs[STACK_POINTER];
                let v = mem.read_u64(sp).map_err(stack_error(pc))?;
                self.regs[rd.index()] = v;
                self.regs[STACK_POINTER] = sp.wrapping_add(8);
            }
            Instruction::Call(a) => {
                let sp = self.regs[STACK_POINTER].wrapping_sub(8);
                mem.write_u64(sp, next).map_err(stack_error(pc))?;
                self.regs[STACK_POINTER] = sp;
                self.pc = a;
                return Ok(CpuAction::Ran { cost: 1, outputs });
            }
            Instruction::Ret => {
                let sp = self.regs[STACK_POINTER];
                let ret = mem.read_u64(sp).map_err(stack_error(pc))?;
                self.regs[STACK_POINTER] = sp.wrapping_add(8);
                self.pc = ret;
                return Ok(CpuAction::Ran { cost: 1, outputs });
            }
            Instruction::Clock(rd) => match dev.clock.guest_read() {
                Some(v) => self.regs[rd.index()] = v,
                None => {
                    // Do not advance the pc; the read retries once the
                    // hypervisor provides a value.
                    return Ok(CpuAction::Pause {
                        exit: VmExit::ClockRead,
                        outputs,
                    });
                }
            },
            Instruction::Send(rp, rl) => {
                let ptr = self.regs[rp.index()];
                let len = self.regs[rl.index()] as usize;
                let data = mem.read_vec(ptr, len)?;
                dev.nic.note_tx(data.len());
                outputs.push(VmExit::NetTx(data));
            }
            Instruction::Recv(rd, rp, rm) => {
                let ptr = self.regs[rp.index()];
                let max = self.regs[rm.index()] as usize;
                if let Some(pkt) = dev.nic.rx_queue.front() {
                    mem.probe_write(ptr, pkt.len().min(max))?;
                }
                match dev.nic.guest_recv() {
                    Some(pkt) => {
                        let n = pkt.len().min(max);
                        mem.write(ptr, &pkt[..n])?;
                        self.regs[rd.index()] = n as u64;
                    }
                    None => self.regs[rd.index()] = 0,
                }
            }
            Instruction::Input(rc, rv) => match dev.input.guest_poll() {
                Some(ev) => {
                    self.regs[rc.index()] = ((ev.device as u64) << 32) | ev.code as u64;
                    self.regs[rv.index()] = ev.value as u64;
                }
                None => {
                    self.regs[rc.index()] = u64::MAX;
                    self.regs[rv.index()] = 0;
                }
            },
            Instruction::Out(rp, rl) => {
                let ptr = self.regs[rp.index()];
                let len = self.regs[rl.index()] as usize;
                let data = mem.read_vec(ptr, len)?;
                dev.console.write(&data);
                outputs.push(VmExit::ConsoleOut(data));
            }
            Instruction::DiskRead(ro, rp, rl) => {
                let off = self.regs[ro.index()];
                let ptr = self.regs[rp.index()];
                let len = self.regs[rl.index()] as usize;
                mem.probe_write(ptr, len)?;
                let mut buf = vec![0u8; len];
                dev.disk.read(off, &mut buf)?;
                mem.write(ptr, &buf)?;
            }
            Instruction::DiskWrite(ro, rp, rl) => {
                let off = self.regs[ro.index()];
                let ptr = self.regs[rp.index()];
                let len = self.regs[rl.index()] as usize;
                let data = mem.read_vec(ptr, len)?;
                dev.disk.write(off, &data)?;
            }
            Instruction::Idle => {
                outputs.push(VmExit::Idle);
            }
        }
        self.pc = next;
        Ok(CpuAction::Ran { cost: 1, outputs })
    }

    fn save_state(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(NUM_REGS * 8 + 8 + 2);
        for r in self.regs {
            out.extend_from_slice(&r.to_le_bytes());
        }
        out.extend_from_slice(&self.pc.to_le_bytes());
        out.push(self.flag as u8);
        out.push(u8::from(self.halted));
        out
    }

    fn restore_state(&mut self, bytes: &[u8]) -> VmResult<()> {
        let expected = NUM_REGS * 8 + 8 + 2;
        if bytes.len() != expected {
            return Err(VmError::CorruptState("bytecode cpu state length"));
        }
        for i in 0..NUM_REGS {
            let mut b = [0u8; 8];
            b.copy_from_slice(&bytes[i * 8..i * 8 + 8]);
            self.regs[i] = u64::from_le_bytes(b);
        }
        let mut b = [0u8; 8];
        b.copy_from_slice(&bytes[NUM_REGS * 8..NUM_REGS * 8 + 8]);
        self.pc = u64::from_le_bytes(b);
        self.flag = bytes[NUM_REGS * 8 + 8] as i8;
        self.halted = bytes[NUM_REGS * 8 + 9] != 0;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytecode::assemble;

    fn run_to_halt(src: &str) -> (BytecodeCpu, GuestMemory, DeviceState) {
        let code = assemble(src, 0).unwrap();
        let mut mem = GuestMemory::new(64 * 1024);
        mem.write(0, &code).unwrap();
        let mut dev = DeviceState::new(&[0u8; 8192]);
        let mut cpu = BytecodeCpu::new(0);
        for _ in 0..100_000 {
            match cpu.step(&mut mem, &mut dev).unwrap() {
                CpuAction::Pause {
                    exit: VmExit::Halted,
                    ..
                } => {
                    return (cpu, mem, dev);
                }
                CpuAction::Pause {
                    exit: VmExit::ClockRead,
                    ..
                } => {
                    dev.clock.provide(42).unwrap();
                }
                _ => {}
            }
        }
        panic!("program did not halt");
    }

    #[test]
    fn arithmetic_and_logic() {
        let (cpu, _, _) = run_to_halt(
            r"
                movi r0, 10
                movi r1, 3
                mov r2, r0
                add r2, r1      ; 13
                mov r3, r0
                sub r3, r1      ; 7
                mov r4, r0
                mul r4, r1      ; 30
                mov r5, r0
                div r5, r1      ; 3
                mov r6, r0
                mod r6, r1      ; 1
                movi r7, 0xf0
                movi r8, 0x0f
                mov r9, r7
                or  r9, r8      ; 0xff
                mov r10, r7
                and r10, r8     ; 0
                mov r11, r7
                xor r11, r8     ; 0xff
                movi r12, 1
                movi r13, 4
                shl r12, r13    ; 16
                halt
            ",
        );
        assert_eq!(cpu.reg(2), 13);
        assert_eq!(cpu.reg(3), 7);
        assert_eq!(cpu.reg(4), 30);
        assert_eq!(cpu.reg(5), 3);
        assert_eq!(cpu.reg(6), 1);
        assert_eq!(cpu.reg(9), 0xff);
        assert_eq!(cpu.reg(10), 0);
        assert_eq!(cpu.reg(11), 0xff);
        assert_eq!(cpu.reg(12), 16);
    }

    #[test]
    fn loop_with_branches() {
        // Sum 1..=10 into r1.
        let (cpu, _, _) = run_to_halt(
            r"
                movi r0, 1       ; counter
                movi r1, 0       ; sum
                movi r2, 11      ; bound
            loop:
                add r1, r0
                addi r0, 1
                cmp r0, r2
                jlt loop
                halt
            ",
        );
        assert_eq!(cpu.reg(1), 55);
    }

    #[test]
    fn call_ret_and_stack() {
        let (cpu, _, _) = run_to_halt(
            r"
                movi r15, 0x8000    ; stack pointer
                movi r0, 5
                call double
                call double
                halt
            double:
                add r0, r0
                ret
            ",
        );
        assert_eq!(cpu.reg(0), 20);
        assert_eq!(cpu.reg(STACK_POINTER), 0x8000);
    }

    #[test]
    fn push_pop() {
        let (cpu, _, _) = run_to_halt(
            r"
                movi r15, 0x8000
                movi r0, 111
                movi r1, 222
                push r0
                push r1
                pop r2
                pop r3
                halt
            ",
        );
        assert_eq!(cpu.reg(2), 222);
        assert_eq!(cpu.reg(3), 111);
    }

    #[test]
    fn memory_loads_and_stores() {
        let (cpu, mut mem, _) = run_to_halt(
            r"
                movi r1, 0x4000
                movi r2, 0xabcd
                store r2, r1, 8
                load r3, r1, 8
                movi r4, 0x42
                storeb r4, r1
                loadb r5, r1
                halt
            ",
        );
        assert_eq!(cpu.reg(3), 0xabcd);
        assert_eq!(cpu.reg(5), 0x42);
        assert_eq!(mem.read_u64(0x4008).unwrap(), 0xabcd);
    }

    #[test]
    fn clock_read_pauses_and_resumes() {
        let (cpu, _, dev) = run_to_halt("clock r7\nhalt");
        assert_eq!(cpu.reg(7), 42);
        assert_eq!(dev.clock.reads_served, 1);
    }

    #[test]
    fn disk_roundtrip_through_guest() {
        let (_, mut mem, dev) = run_to_halt(
            r#"
                movi r1, src
                movi r2, 0          ; disk offset
                movi r3, 9          ; length
                diskwr r2, r1, r3
                movi r4, 0x5000
                diskrd r2, r4, r3
                halt
            src:
                .ascii "disk-data"
            "#,
        );
        assert_eq!(mem.read_vec(0x5000, 9).unwrap(), b"disk-data");
        assert_eq!(dev.disk.writes, 1);
        assert_eq!(dev.disk.reads, 1);
    }

    #[test]
    fn input_polling() {
        let code = assemble("input r1, r2\ninput r3, r4\nhalt", 0).unwrap();
        let mut mem = GuestMemory::new(4096);
        mem.write(0, &code).unwrap();
        let mut dev = DeviceState::new(b"");
        dev.input.inject(crate::devices::InputEvent {
            device: 1,
            code: 0x20,
            value: 1,
        });
        let mut cpu = BytecodeCpu::new(0);
        cpu.step(&mut mem, &mut dev).unwrap();
        cpu.step(&mut mem, &mut dev).unwrap();
        assert_eq!(cpu.reg(1), (1u64 << 32) | 0x20);
        assert_eq!(cpu.reg(2), 1);
        assert_eq!(cpu.reg(3), u64::MAX);
    }

    #[test]
    fn division_by_zero_faults() {
        let code = assemble("movi r0, 1\nmovi r1, 0\ndiv r0, r1\nhalt", 0).unwrap();
        let mut mem = GuestMemory::new(4096);
        mem.write(0, &code).unwrap();
        let mut dev = DeviceState::new(b"");
        let mut cpu = BytecodeCpu::new(0);
        cpu.step(&mut mem, &mut dev).unwrap();
        cpu.step(&mut mem, &mut dev).unwrap();
        assert_eq!(
            cpu.step(&mut mem, &mut dev).unwrap_err(),
            VmError::DivisionByZero { pc: 20 }
        );
    }

    #[test]
    fn stack_fault_detected() {
        // Push with sp == 0 wraps around and faults.
        let code = assemble("movi r15, 2\npush r0\nhalt", 0).unwrap();
        let mut mem = GuestMemory::new(4096);
        mem.write(0, &code).unwrap();
        let mut dev = DeviceState::new(b"");
        let mut cpu = BytecodeCpu::new(0);
        cpu.step(&mut mem, &mut dev).unwrap();
        assert!(matches!(
            cpu.step(&mut mem, &mut dev).unwrap_err(),
            VmError::StackFault { .. }
        ));
    }

    #[test]
    fn state_save_restore_roundtrip() {
        let (cpu, _, _) = run_to_halt("movi r3, 99\nhalt");
        let state = cpu.save_state();
        let mut restored = BytecodeCpu::new(0);
        restored.restore_state(&state).unwrap();
        assert_eq!(restored.reg(3), 99);
        assert_eq!(restored.save_state(), state);
        assert!(restored.restore_state(&state[..10]).is_err());
    }

    #[test]
    fn stepping_a_halted_cpu_is_an_error() {
        let (mut cpu, mut mem, mut dev) = run_to_halt("halt");
        assert_eq!(cpu.step(&mut mem, &mut dev).unwrap_err(), VmError::Halted);
    }

    #[test]
    fn entry_validation() {
        let cpu = BytecodeCpu::new(0);
        assert!(cpu.validate_entry(0, 0, 100).is_ok());
        assert!(cpu.validate_entry(50, 0, 100).is_ok());
        assert!(cpu.validate_entry(100, 0, 100).is_err());
        assert!(cpu.validate_entry(5, 10, 100).is_err());
    }
}
