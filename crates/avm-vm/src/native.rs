//! Native guest kernels: deterministic Rust programs driven through the same
//! device interface as bytecode guests.
//!
//! The paper runs full Windows XP images with Counterstrike or MySQL inside
//! the AVM.  Reproducing those binaries is out of scope, so the richer
//! workloads in this repository (the game and the database server) are
//! written as *guest kernels*: Rust state machines that interact with the
//! outside world exclusively through [`GuestCtx`] — the virtual clock, NIC,
//! input queue, disk and console.  Because every input arrives through those
//! devices and is recorded by the AVMM, native guests replay exactly like
//! bytecode guests; DESIGN.md documents this substitution.
//!
//! Determinism contract for implementors: `step` must depend only on the
//! kernel's own state and on values obtained from the [`GuestCtx`]; it must
//! not read wall-clock time, environment variables, thread scheduling or any
//! other host state, and it must not use randomness that is not derived from
//! device inputs.  `save_state`/`restore_state` must capture the complete
//! kernel state so that a restored kernel continues bit-identically.

use crate::devices::{DeviceState, InputEvent};
use crate::error::{VmError, VmResult};
use crate::exit::VmExit;
use crate::mem::GuestMemory;

/// Result of one native guest step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GuestStep {
    /// The kernel did `cost` abstract instructions worth of work.
    Ran {
        /// Number of machine steps this work accounts for (must be ≥ 1).
        cost: u64,
    },
    /// The kernel asked for the clock and must wait for the hypervisor.
    WaitingClock,
    /// The kernel has nothing to do until new input is injected.
    Idle,
    /// The kernel has finished; the machine halts.
    Halted,
}

/// Execution context handed to a native guest kernel on every step.
///
/// All interactions with the outside world go through this context; outputs
/// are collected and surfaced as [`VmExit`]s by the machine.
pub struct GuestCtx<'a> {
    mem: &'a mut GuestMemory,
    dev: &'a mut DeviceState,
    outputs: Vec<VmExit>,
}

impl<'a> GuestCtx<'a> {
    /// Creates a context over the machine's memory and devices.
    ///
    /// Exposed publicly so guest kernels can be unit-tested standalone,
    /// without constructing a full [`crate::machine::Machine`].
    pub fn new(mem: &'a mut GuestMemory, dev: &'a mut DeviceState) -> GuestCtx<'a> {
        GuestCtx {
            mem,
            dev,
            outputs: Vec::new(),
        }
    }

    /// Consumes the context, returning the outputs produced during the step.
    pub fn into_outputs(self) -> Vec<VmExit> {
        self.outputs
    }

    /// Attempts to read the virtual clock.
    ///
    /// Returns `None` when the value must come from the hypervisor first; the
    /// kernel should then return [`GuestStep::WaitingClock`] and retry the
    /// read on its next step.
    pub fn read_clock(&mut self) -> Option<u64> {
        self.dev.clock.guest_read()
    }

    /// Polls the NIC for the next received packet.
    pub fn recv_packet(&mut self) -> Option<Vec<u8>> {
        self.dev.nic.guest_recv()
    }

    /// Transmits a network packet (externally visible output).
    pub fn send_packet(&mut self, data: Vec<u8>) {
        self.dev.nic.note_tx(data.len());
        self.outputs.push(VmExit::NetTx(data));
    }

    /// Polls the local input queue.
    pub fn poll_input(&mut self) -> Option<InputEvent> {
        self.dev.input.guest_poll()
    }

    /// Writes diagnostic output to the console.
    pub fn console(&mut self, data: &[u8]) {
        self.dev.console.write(data);
        self.outputs.push(VmExit::ConsoleOut(data.to_vec()));
    }

    /// Writes to the virtual disk.
    pub fn disk_write(&mut self, offset: u64, data: &[u8]) -> VmResult<()> {
        self.dev.disk.write(offset, data)
    }

    /// Size of the virtual disk in bytes.
    pub fn disk_size(&self) -> u64 {
        self.dev.disk.size()
    }

    /// Direct access to guest RAM (rarely needed by native kernels).
    pub fn memory(&mut self) -> &mut GuestMemory {
        self.mem
    }
}

/// A deterministic native guest program.
pub trait GuestKernel: Send {
    /// Executes one step of the kernel.
    fn step(&mut self, ctx: &mut GuestCtx<'_>) -> GuestStep;

    /// Serializes the complete kernel state.
    fn save_state(&self) -> Vec<u8>;

    /// Restores state produced by [`GuestKernel::save_state`].
    fn restore_state(&mut self, bytes: &[u8]) -> VmResult<()>;

    /// Short, stable name of the kernel (used in diagnostics).
    fn name(&self) -> &str;
}

/// CPU adapter that drives a [`GuestKernel`] and implements the machine's
/// CPU interface.
pub struct NativeCpu {
    kernel: Box<dyn GuestKernel>,
    halted: bool,
}

impl NativeCpu {
    /// Wraps a guest kernel.
    pub fn new(kernel: Box<dyn GuestKernel>) -> NativeCpu {
        NativeCpu {
            kernel,
            halted: false,
        }
    }

    /// Access to the wrapped kernel (used by tests and workload inspectors).
    pub fn kernel(&self) -> &dyn GuestKernel {
        self.kernel.as_ref()
    }
}

impl crate::machine::CpuCore for NativeCpu {
    fn step(
        &mut self,
        mem: &mut GuestMemory,
        dev: &mut DeviceState,
    ) -> VmResult<crate::machine::CpuAction> {
        use crate::machine::CpuAction;
        if self.halted {
            return Err(VmError::Halted);
        }
        let mut ctx = GuestCtx::new(mem, dev);
        let step = self.kernel.step(&mut ctx);
        let outputs = ctx.into_outputs();
        // A kernel step cannot be unwound, and a kernel may carry on past a
        // refused access or drop its error: a miss is reported after the
        // step, which leaves the machine to be rebuilt, not resumed.
        if !mem.leaves().missed().is_empty() || !dev.disk.leaves().missed().is_empty() {
            return Err(VmError::Miss);
        }
        let action = match step {
            GuestStep::Ran { cost } => CpuAction::Ran {
                cost: cost.max(1),
                outputs,
            },
            GuestStep::WaitingClock => CpuAction::Pause {
                exit: VmExit::ClockRead,
                outputs,
            },
            GuestStep::Idle => CpuAction::Pause {
                exit: VmExit::Idle,
                outputs,
            },
            GuestStep::Halted => {
                self.halted = true;
                CpuAction::Pause {
                    exit: VmExit::Halted,
                    outputs,
                }
            }
        };
        Ok(action)
    }

    fn save_state(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.push(u8::from(self.halted));
        out.extend_from_slice(&self.kernel.save_state());
        out
    }

    fn restore_state(&mut self, bytes: &[u8]) -> VmResult<()> {
        let (&halted, rest) = bytes
            .split_first()
            .ok_or(VmError::CorruptState("empty native cpu state"))?;
        self.halted = halted != 0;
        self.kernel.restore_state(rest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{CpuAction, CpuCore};

    /// A trivial kernel: counts steps, echoes received packets, reads the
    /// clock every 4th step.
    struct EchoKernel {
        steps: u64,
    }

    impl GuestKernel for EchoKernel {
        fn step(&mut self, ctx: &mut GuestCtx<'_>) -> GuestStep {
            if self.steps % 4 == 3 {
                match ctx.read_clock() {
                    None => return GuestStep::WaitingClock,
                    Some(t) => ctx.console(format!("t={t}").as_bytes()),
                }
            }
            if let Some(pkt) = ctx.recv_packet() {
                ctx.send_packet(pkt);
            }
            self.steps += 1;
            GuestStep::Ran { cost: 2 }
        }

        fn save_state(&self) -> Vec<u8> {
            self.steps.to_le_bytes().to_vec()
        }

        fn restore_state(&mut self, bytes: &[u8]) -> VmResult<()> {
            let arr: [u8; 8] = bytes
                .try_into()
                .map_err(|_| VmError::CorruptState("echo kernel state"))?;
            self.steps = u64::from_le_bytes(arr);
            Ok(())
        }

        fn name(&self) -> &str {
            "echo"
        }
    }

    #[test]
    fn native_cpu_surfaces_outputs_and_waits() {
        let mut mem = GuestMemory::new(4096);
        let mut dev = DeviceState::new(b"");
        let mut cpu = NativeCpu::new(Box::new(EchoKernel { steps: 0 }));

        // First step: no packet, just runs.
        match cpu.step(&mut mem, &mut dev).unwrap() {
            CpuAction::Ran { cost, outputs } => {
                assert_eq!(cost, 2);
                assert!(outputs.is_empty());
            }
            other => panic!("unexpected action {other:?}"),
        }

        // Inject a packet; the next step echoes it.
        dev.nic.inject(vec![9, 9, 9]);
        match cpu.step(&mut mem, &mut dev).unwrap() {
            CpuAction::Ran { outputs, .. } => {
                assert_eq!(outputs, vec![VmExit::NetTx(vec![9, 9, 9])]);
            }
            other => panic!("unexpected action {other:?}"),
        }

        // Step 3 (steps counter == 3 on the 4th call): requests the clock.
        cpu.step(&mut mem, &mut dev).unwrap();
        match cpu.step(&mut mem, &mut dev).unwrap() {
            CpuAction::Pause { exit, .. } => assert_eq!(exit, VmExit::ClockRead),
            other => panic!("unexpected action {other:?}"),
        }
        dev.clock.provide(1234).unwrap();
        match cpu.step(&mut mem, &mut dev).unwrap() {
            CpuAction::Ran { outputs, .. } => {
                assert_eq!(outputs, vec![VmExit::ConsoleOut(b"t=1234".to_vec())]);
            }
            other => panic!("unexpected action {other:?}"),
        }
    }

    #[test]
    fn native_cpu_state_roundtrip() {
        let mut mem = GuestMemory::new(4096);
        let mut dev = DeviceState::new(b"");
        let mut cpu = NativeCpu::new(Box::new(EchoKernel { steps: 0 }));
        cpu.step(&mut mem, &mut dev).unwrap();
        cpu.step(&mut mem, &mut dev).unwrap();
        let state = cpu.save_state();

        let mut restored = NativeCpu::new(Box::new(EchoKernel { steps: 0 }));
        restored.restore_state(&state).unwrap();
        assert_eq!(restored.save_state(), state);
        assert!(restored.restore_state(&[1]).is_err());
        assert!(restored.restore_state(&[]).is_err());
    }
}
