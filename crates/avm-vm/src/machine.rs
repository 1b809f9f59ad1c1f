//! The virtual machine: memory + devices + CPU behind a hypervisor interface.

use std::collections::VecDeque;

use avm_crypto::sha256::{Digest, Sha256};

use crate::devices::{DeviceState, InputEvent};
use crate::error::{VmError, VmResult};
use crate::exit::{StopCondition, VmExit};
use crate::image::{GuestRegistry, ImageKind, VmImage};
use crate::mem::GuestMemory;
use crate::store::LeafStore;

/// Result of a single CPU step, produced by a [`CpuCore`] implementation.
#[derive(Debug)]
pub enum CpuAction {
    /// The CPU made progress.
    Ran {
        /// Number of machine steps consumed (≥ 1).
        cost: u64,
        /// Exits to surface to the hypervisor, in order (outputs, idle hints).
        outputs: Vec<VmExit>,
    },
    /// The CPU cannot make progress until the hypervisor acts; no steps are
    /// consumed and the same logical operation resumes on the next step.
    Pause {
        /// The exit describing why the CPU paused.
        exit: VmExit,
        /// Outputs produced before pausing.
        outputs: Vec<VmExit>,
    },
}

/// A CPU implementation (the interpreting bytecode CPU or a native guest
/// kernel adapter).
pub trait CpuCore: Send {
    /// Executes one step against guest memory and devices.
    fn step(&mut self, mem: &mut GuestMemory, dev: &mut DeviceState) -> VmResult<CpuAction>;

    /// Serializes the complete CPU state.
    fn save_state(&self) -> Vec<u8>;

    /// Restores state produced by [`CpuCore::save_state`].
    fn restore_state(&mut self, bytes: &[u8]) -> VmResult<()>;
}

/// Static configuration of a machine.
#[derive(Debug, Clone)]
pub struct MachineConfig {
    /// Guest RAM size in bytes.
    pub mem_size: u64,
    /// Initial disk contents.
    pub disk_content: Vec<u8>,
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig {
            mem_size: 256 * 1024,
            disk_content: Vec::new(),
        }
    }
}

/// A deterministic virtual machine.
///
/// The hypervisor (the AVMM in `avm-core`, or a test) drives the machine by
/// calling [`Machine::run`] and responding to the returned [`VmExit`]s.
/// Asynchronous inputs are delivered through [`Machine::inject_packet`] and
/// [`Machine::inject_input`]; the step counter at the moment of injection is
/// the timestamp the AVMM records so that replay can re-inject at exactly the
/// same point.
pub struct Machine {
    mem: GuestMemory,
    dev: DeviceState,
    cpu: Box<dyn CpuCore>,
    step_count: u64,
    halted: bool,
    waiting_clock: bool,
    pending: VecDeque<VmExit>,
    /// Bumped on every operation that may change CPU state, volatile device
    /// state or the control word — the three "header" leaves of the Merkle
    /// state tree.  `StateTreeCache::refresh` skips reserialising and
    /// rehashing those leaves while the version is unchanged.
    state_version: u64,
}

impl Machine {
    /// Creates a machine from parts.
    pub fn new(config: MachineConfig, cpu: Box<dyn CpuCore>) -> Machine {
        Machine::assemble(
            GuestMemory::new(config.mem_size),
            DeviceState::new(&config.disk_content),
            cpu,
        )
    }

    fn assemble(mem: GuestMemory, dev: DeviceState, cpu: Box<dyn CpuCore>) -> Machine {
        Machine {
            mem,
            dev,
            cpu,
            step_count: 0,
            halted: false,
            waiting_clock: false,
            pending: VecDeque::new(),
            state_version: 0,
        }
    }

    /// Instantiates a machine from a VM image, using `registry` to resolve
    /// native guest programs.
    ///
    /// Both stores share the pages of the image's baseline
    /// ([`VmImage::baseline`]) until the machine writes them, and their hash
    /// slots start out filled from it, so a machine costs what diverged from
    /// the image and nothing downstream ever hashes state that is still what
    /// the image put there.
    pub fn from_image(image: &VmImage, registry: &GuestRegistry) -> VmResult<Machine> {
        let cpu: Box<dyn CpuCore> = match image.kind() {
            ImageKind::Bytecode {
                code,
                load_addr,
                entry,
            } => {
                let cpu = crate::bytecode::BytecodeCpu::new(*entry);
                cpu.validate_entry(*entry, *load_addr, code.len() as u64)?;
                Box::new(cpu)
            }
            ImageKind::Native { program, config } => {
                let kernel = registry.instantiate(program, config)?;
                Box::new(crate::native::NativeCpu::new(kernel))
            }
        };
        let (mem, disk) = image.baseline().fresh_stores()?;
        Ok(Machine::assemble(mem, DeviceState::with_disk(disk), cpu))
    }

    /// Current step counter (total machine steps executed so far).
    pub fn step_count(&self) -> u64 {
        self.step_count
    }

    /// A conservative change counter over CPU state, volatile device state
    /// and the control word (everything the state tree's header leaves
    /// cover).  Guest memory writes do *not* bump it — pages have their own
    /// dirty bits.  While two observations return the same version, the
    /// header leaves are guaranteed unchanged; the converse need not hold
    /// (a bump does not imply an actual change).
    pub fn state_version(&self) -> u64 {
        self.state_version
    }

    /// True once the guest has halted.
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    /// True while the machine waits for a clock value from the hypervisor.
    pub fn is_waiting_clock(&self) -> bool {
        self.waiting_clock
    }

    /// Immutable access to guest memory.
    pub fn memory(&self) -> &GuestMemory {
        &self.mem
    }

    /// Mutable access to guest memory (snapshot restore, test setup — and
    /// the attack surface a cheating operator would use).
    pub fn memory_mut(&mut self) -> &mut GuestMemory {
        &mut self.mem
    }

    /// The machine's two leaf stores in the fixed Merkle order: after the
    /// [`crate::STATE_HEADER_LEAVES`] header leaves of the state tree come
    /// guest memory's chunks, then the disk's blocks.  This is the one place
    /// that order is written down; whoever builds, refreshes, captures,
    /// restores or stages machine state walks it with a running leaf base.
    pub fn stores(&self) -> [&LeafStore; 2] {
        [self.mem.leaves(), self.dev.disk.leaves()]
    }

    /// [`Machine::stores`], mutably (snapshot restore, staging).  The state
    /// version stays put: store contents appear in no header leaf.
    pub fn stores_mut(&mut self) -> [&mut LeafStore; 2] {
        [self.mem.leaves_mut(), self.dev.disk.leaves_mut()]
    }

    /// Immutable access to device state.
    pub fn devices(&self) -> &DeviceState {
        &self.dev
    }

    /// Mutable access to device state.
    ///
    /// Bumps the state version: volatile device state is part of the Merkle
    /// tree's header leaves and the caller may change it through this
    /// handle.
    pub fn devices_mut(&mut self) -> &mut DeviceState {
        self.state_version += 1;
        &mut self.dev
    }

    /// Clears memory and disk dirty tracking without bumping the state
    /// version.
    ///
    /// Dirty bits are bookkeeping, not machine state — they appear in no
    /// header leaf — so snapshot capture and restore paths use this instead
    /// of reaching through [`Machine::devices_mut`] (which conservatively
    /// assumes device state may change).
    pub fn clear_dirty_tracking(&mut self) {
        for store in self.stores_mut() {
            store.clear_dirty();
        }
    }

    /// Runs the machine until an exit or until `stop` is reached.
    pub fn run(&mut self, stop: StopCondition) -> VmResult<VmExit> {
        self.state_version += 1;
        if let Some(e) = self.pending.pop_front() {
            return Ok(e);
        }
        if self.halted {
            return Ok(VmExit::Halted);
        }
        if self.waiting_clock {
            return Err(VmError::PendingHostResponse);
        }
        loop {
            if let Some(bound) = stop.step_bound() {
                if self.step_count >= bound {
                    return Ok(VmExit::StepLimit);
                }
            }
            match self.cpu.step(&mut self.mem, &mut self.dev)? {
                CpuAction::Ran { cost, outputs } => {
                    self.step_count += cost.max(1);
                    self.pending.extend(outputs);
                    if let Some(e) = self.pending.pop_front() {
                        return Ok(e);
                    }
                }
                CpuAction::Pause { exit, outputs } => {
                    self.pending.extend(outputs);
                    match &exit {
                        VmExit::ClockRead => self.waiting_clock = true,
                        VmExit::Halted => self.halted = true,
                        _ => {}
                    }
                    self.pending.push_back(exit);
                    return Ok(self.pending.pop_front().expect("just pushed"));
                }
            }
        }
    }

    /// Delivers a clock value in response to a [`VmExit::ClockRead`].
    pub fn provide_clock(&mut self, value: u64) -> VmResult<()> {
        if !self.waiting_clock {
            return Err(VmError::UnexpectedHostResponse);
        }
        self.state_version += 1;
        self.dev.clock.provide(value)?;
        self.waiting_clock = false;
        Ok(())
    }

    /// Injects a network packet into the guest's NIC receive queue.
    ///
    /// Returns the step count at which the injection happened — the stamp the
    /// AVMM records so replay can re-inject at the same point.
    pub fn inject_packet(&mut self, data: Vec<u8>) -> u64 {
        self.state_version += 1;
        self.dev.nic.inject(data);
        self.step_count
    }

    /// Injects a local input event (keyboard/mouse).
    pub fn inject_input(&mut self, ev: InputEvent) -> u64 {
        self.state_version += 1;
        self.dev.input.inject(ev);
        self.step_count
    }

    /// Serializes the CPU state.
    pub fn save_cpu_state(&self) -> Vec<u8> {
        self.cpu.save_state()
    }

    /// Restores CPU state.
    pub fn restore_cpu_state(&mut self, bytes: &[u8]) -> VmResult<()> {
        self.state_version += 1;
        self.cpu.restore_state(bytes)
    }

    /// Restores the execution-control flags saved alongside snapshots.
    pub fn set_control_state(&mut self, step_count: u64, halted: bool, waiting_clock: bool) {
        self.state_version += 1;
        self.step_count = step_count;
        self.halted = halted;
        self.waiting_clock = waiting_clock;
        self.pending.clear();
    }

    /// Computes a digest of the complete machine state: CPU, volatile device
    /// state, every memory page and every disk block.
    ///
    /// This is the value the AVMM folds into snapshot records; two machines
    /// with equal digests are (up to hash collisions) in identical states.
    ///
    /// Hashes *raw* contents, so it must not be used on a partially-resident
    /// machine (one with staged, not-yet-faulted chunks or blocks from
    /// [`crate::GuestMemory::stage_lazy_chunk`]); compare Merkle state roots
    /// there instead — they are derived from the per-leaf hash caches, which
    /// demand paging keeps authentic.
    pub fn state_digest(&self) -> Digest {
        let mut h = Sha256::new();
        h.update(b"avm-machine-state-v1");
        let cpu = self.cpu.save_state();
        h.update(&(cpu.len() as u64).to_le_bytes());
        h.update(&cpu);
        let dev = self.dev.save_volatile();
        h.update(&(dev.len() as u64).to_le_bytes());
        h.update(&dev);
        h.update(&self.step_count.to_le_bytes());
        h.update(&[u8::from(self.halted), u8::from(self.waiting_clock)]);
        for store in self.stores() {
            for i in 0..store.page_count() {
                h.update(store.page(i).expect("page in range"));
            }
        }
        h.finalize()
    }
}

impl core::fmt::Debug for Machine {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Machine")
            .field("step_count", &self.step_count)
            .field("halted", &self.halted)
            .field("waiting_clock", &self.waiting_clock)
            .field("mem_pages", &self.mem.page_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytecode::{assemble, BytecodeCpu};

    fn machine_with_program(src: &str) -> Machine {
        let code = assemble(src, 0).unwrap();
        let mut m = Machine::new(
            MachineConfig {
                mem_size: 64 * 1024,
                disk_content: vec![0u8; 8192],
            },
            Box::new(BytecodeCpu::new(0)),
        );
        m.memory_mut().write(0, &code).unwrap();
        m.memory_mut().clear_dirty();
        m
    }

    #[test]
    fn halt_program_halts() {
        let mut m = machine_with_program("halt");
        assert_eq!(m.run(StopCondition::Unbounded).unwrap(), VmExit::Halted);
        assert!(m.is_halted());
        // Running again keeps reporting Halted.
        assert_eq!(m.run(StopCondition::Unbounded).unwrap(), VmExit::Halted);
    }

    #[test]
    fn step_limit_is_exact_for_bytecode() {
        let mut m = machine_with_program(
            r"
            loop:
                addi r0, 1
                jmp loop
            ",
        );
        assert_eq!(m.run(StopCondition::AtStep(10)).unwrap(), VmExit::StepLimit);
        assert_eq!(m.step_count(), 10);
        assert_eq!(m.run(StopCondition::AtStep(25)).unwrap(), VmExit::StepLimit);
        assert_eq!(m.step_count(), 25);
    }

    #[test]
    fn clock_read_protocol() {
        let mut m = machine_with_program("clock r1\nhalt");
        assert_eq!(m.run(StopCondition::Unbounded).unwrap(), VmExit::ClockRead);
        assert!(m.is_waiting_clock());
        // Running while waiting is an error.
        assert_eq!(
            m.run(StopCondition::Unbounded).unwrap_err(),
            VmError::PendingHostResponse
        );
        m.provide_clock(777).unwrap();
        assert_eq!(m.run(StopCondition::Unbounded).unwrap(), VmExit::Halted);
        // Unsolicited clock value is rejected.
        assert_eq!(
            m.provide_clock(1).unwrap_err(),
            VmError::UnexpectedHostResponse
        );
    }

    #[test]
    fn send_packet_surfaces_as_net_tx() {
        let mut m = machine_with_program(
            r#"
                movi r1, payload
                movi r2, 4
                send r1, r2
                halt
            payload:
                .ascii "ping"
            "#,
        );
        assert_eq!(
            m.run(StopCondition::Unbounded).unwrap(),
            VmExit::NetTx(b"ping".to_vec())
        );
        assert_eq!(m.devices().nic.tx_packets, 1);
        assert_eq!(m.run(StopCondition::Unbounded).unwrap(), VmExit::Halted);
    }

    #[test]
    fn packet_injection_and_echo() {
        let mut m = machine_with_program(
            r"
                movi r1, 0x8000      ; buffer
                movi r2, 256         ; max len
            wait:
                recv r0, r1, r2
                cmp r0, r3           ; r3 == 0
                jne got
                idle
                jmp wait
            got:
                send r1, r0
                halt
            ",
        );
        // The guest idles until a packet arrives.
        assert_eq!(m.run(StopCondition::Unbounded).unwrap(), VmExit::Idle);
        let stamp = m.inject_packet(b"hello avm".to_vec());
        assert_eq!(stamp, m.step_count());
        assert_eq!(
            m.run(StopCondition::Unbounded).unwrap(),
            VmExit::NetTx(b"hello avm".to_vec())
        );
    }

    #[test]
    fn deterministic_replay_of_identical_inputs() {
        let src = r"
                movi r1, 0x8000
                movi r2, 256
            loop:
                recv r0, r1, r2
                cmp r0, r3
                jne got
                clock r4
                jmp loop
            got:
                send r1, r0
                halt
            ";
        let run_once =
            |clock_values: &[u64], inject_at: u64, payload: &[u8]| -> (Vec<VmExit>, u64, Digest) {
                let mut m = machine_with_program(src);
                let mut exits = Vec::new();
                let mut clocks = clock_values.iter().copied();
                let mut injected = false;
                loop {
                    let e = m.run(StopCondition::Unbounded).unwrap();
                    exits.push(e.clone());
                    match e {
                        VmExit::ClockRead => {
                            if !injected && m.step_count() >= inject_at {
                                m.inject_packet(payload.to_vec());
                                injected = true;
                            }
                            m.provide_clock(clocks.next().unwrap_or(0)).unwrap();
                        }
                        VmExit::Halted => break,
                        _ => {}
                    }
                }
                (exits, m.step_count(), m.state_digest())
            };
        let a = run_once(&[5, 10, 15, 20, 25, 30], 12, b"data");
        let b = run_once(&[5, 10, 15, 20, 25, 30], 12, b"data");
        assert_eq!(a.0, b.0);
        assert_eq!(a.1, b.1);
        assert_eq!(a.2, b.2);
        // Different inputs produce a different execution.
        let c = run_once(&[5, 10, 15, 20, 25, 30, 35, 40], 30, b"data");
        assert_ne!(a.1, c.1);
    }

    #[test]
    fn state_version_tracks_header_state_mutations() {
        let mut m = machine_with_program("idle\nhalt");
        let v0 = m.state_version();
        // Pure memory writes do not bump the version (pages have dirty bits).
        m.memory_mut().write_u8(0x900, 1).unwrap();
        assert_eq!(m.state_version(), v0);
        // Clearing dirty tracking is bookkeeping, not a state change.
        m.clear_dirty_tracking();
        assert_eq!(m.state_version(), v0);
        // Anything that can touch CPU/device/control state bumps it.
        m.inject_packet(vec![1]);
        let v1 = m.state_version();
        assert!(v1 > v0);
        m.run(StopCondition::Unbounded).unwrap();
        assert!(m.state_version() > v1);
        let v2 = m.state_version();
        m.devices_mut();
        assert!(m.state_version() > v2);
    }

    #[test]
    fn state_digest_changes_with_memory() {
        let mut m = machine_with_program("halt");
        let before = m.state_digest();
        m.memory_mut().write_u8(0x9000, 1).unwrap();
        assert_ne!(before, m.state_digest());
    }

    #[test]
    fn cpu_state_save_restore() {
        let mut m = machine_with_program("addi r0, 5\naddi r0, 7\nhalt");
        m.run(StopCondition::AtStep(1)).unwrap();
        let cpu = m.save_cpu_state();
        let digest_mid = m.state_digest();
        m.run(StopCondition::Unbounded).unwrap();
        // Restore and confirm the digest matches the mid-execution state.
        m.restore_cpu_state(&cpu).unwrap();
        m.set_control_state(1, false, false);
        assert_eq!(m.state_digest(), digest_mid);
    }

    #[test]
    fn console_output_exit() {
        let mut m = machine_with_program(
            r#"
                movi r1, msg
                movi r2, 2
                out r1, r2
                halt
            msg:
                .ascii "ok"
            "#,
        );
        assert_eq!(
            m.run(StopCondition::Unbounded).unwrap(),
            VmExit::ConsoleOut(b"ok".to_vec())
        );
    }
}
