//! The guest on a bare [`Machine`]: the baseline recording is compared with.
//!
//! A `BareHost` answers the machine's exits with exactly the clock values,
//! packets and local inputs a recorded execution saw, at the same guest
//! steps — but keeps no log, signs nothing and takes no snapshot.  The
//! guest therefore executes the identical instruction stream, and the
//! difference between a block's bare time and its recorded time is what the
//! monitor costs (paper Fig. 7's bare-hardware column).
//!
//! The positioning rules mirror `avm_core::replay::Replayer` (run to the
//! logged step, let a guest that was just handed a clock value settle
//! before the next injection), minus every check.

use std::collections::HashMap;

use crate::layers::{
    Decode, EntryKind, InputEvent, LogEntry, Machine, NdDetail, NdEventRecord, RecvRecord,
    StopCondition, VmExit,
};

#[derive(Debug, Clone)]
enum Event {
    Clock { value: u64 },
    Packet { step: u64, payload: Vec<u8> },
    Input { step: u64, event: InputEvent },
}

/// The nondeterministic inputs of one recorded execution, cut into the
/// same blocks the recording was timed in.
#[derive(Debug, Clone, Default)]
pub struct BareScript {
    events: Vec<Event>,
    /// Per block: (events consumed by its end, guest step at its end).
    blocks: Vec<(usize, u64)>,
}

impl BareScript {
    /// Builds the script from a recorded log.  `block_ends[i]` is
    /// `(log length, guest step)` when block `i` of the recording ended.
    pub fn from_log(entries: &[LogEntry], block_ends: &[(usize, u64)]) -> BareScript {
        let mut recvs: HashMap<u64, Vec<u8>> = HashMap::new();
        let mut events = Vec::new();
        let mut blocks = Vec::with_capacity(block_ends.len());
        let mut next_block = 0;
        for (i, entry) in entries.iter().enumerate() {
            while next_block < block_ends.len() && block_ends[next_block].0 <= i {
                blocks.push((events.len(), block_ends[next_block].1));
                next_block += 1;
            }
            match entry.kind {
                EntryKind::Recv => {
                    let rec = RecvRecord::decode_exact(&entry.content).expect("own RECV decodes");
                    recvs.insert(entry.seq, rec.payload);
                }
                EntryKind::NdEvent => {
                    let rec =
                        NdEventRecord::decode_exact(&entry.content).expect("own NDEVENT decodes");
                    events.push(match rec.detail {
                        NdDetail::ClockRead { value } => Event::Clock { value },
                        NdDetail::PacketInjected { recv_seq, .. } => Event::Packet {
                            step: rec.step,
                            payload: recvs.remove(&recv_seq).expect("injection follows its RECV"),
                        },
                        NdDetail::InputInjected { event } => Event::Input {
                            step: rec.step,
                            event,
                        },
                    });
                }
                _ => {}
            }
        }
        while next_block < block_ends.len() {
            blocks.push((events.len(), block_ends[next_block].1));
            next_block += 1;
        }
        BareScript { events, blocks }
    }

    pub fn blocks(&self) -> usize {
        self.blocks.len()
    }
}

/// Counters of one bare execution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BareStats {
    /// `VmExit`s the host answered.
    pub exits: u64,
    /// Packets the guest transmitted.
    pub packets_out: u64,
}

pub struct BareHost<'s> {
    machine: Machine,
    script: &'s BareScript,
    cursor: usize,
    next_block: usize,
    clock_pending: bool,
    stats: BareStats,
}

impl<'s> BareHost<'s> {
    pub fn new(machine: Machine, script: &'s BareScript) -> BareHost<'s> {
        BareHost {
            machine,
            script,
            cursor: 0,
            next_block: 0,
            clock_pending: false,
            stats: BareStats::default(),
        }
    }

    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    pub fn machine_mut(&mut self) -> &mut Machine {
        &mut self.machine
    }

    pub fn stats(&self) -> BareStats {
        self.stats
    }

    /// Executes the next block: feeds its inputs, then runs the guest to
    /// the step the recording ended the block at.
    pub fn run_block(&mut self) {
        let (end_event, end_step) = self.script.blocks[self.next_block];
        self.next_block += 1;
        while self.cursor < end_event {
            let event = self.script.events[self.cursor].clone();
            self.cursor += 1;
            match event {
                Event::Clock { value } => {
                    self.run_until_clock();
                    self.machine
                        .provide_clock(value)
                        .expect("guest asked for the clock");
                    self.clock_pending = true;
                }
                Event::Packet { step, payload } => {
                    self.run_to_step(step);
                    self.machine.inject_packet(payload);
                }
                Event::Input { step, event } => {
                    self.run_to_step(step);
                    self.machine.inject_input(event);
                }
            }
        }
        self.run_to_step(end_step);
    }

    fn note(&mut self, exit: &VmExit) {
        self.stats.exits += 1;
        if matches!(exit, VmExit::NetTx(_)) {
            self.stats.packets_out += 1;
        }
    }

    fn run_until_clock(&mut self) {
        if self.machine.is_waiting_clock() {
            return;
        }
        self.clock_pending = false;
        loop {
            let exit = self
                .machine
                .run(StopCondition::Unbounded)
                .expect("recorded guest runs");
            self.note(&exit);
            match exit {
                VmExit::ClockRead => return,
                VmExit::Halted | VmExit::StepLimit => {
                    panic!("script expects a clock read, guest stopped")
                }
                _ => {}
            }
        }
    }

    /// Lets a guest that was just handed a clock value run on until it
    /// idles or asks again — in the recording it did so before the next
    /// input was injected.
    fn settle_after_clock(&mut self) {
        if !self.clock_pending {
            return;
        }
        self.clock_pending = false;
        loop {
            let exit = self
                .machine
                .run(StopCondition::Unbounded)
                .expect("recorded guest runs");
            self.note(&exit);
            if !exit.is_output() {
                return;
            }
        }
    }

    fn run_to_step(&mut self, step: u64) {
        self.settle_after_clock();
        let mut idle_at = None;
        while self.machine.step_count() < step && !self.machine.is_waiting_clock() {
            let exit = self
                .machine
                .run(StopCondition::AtStep(step))
                .expect("recorded guest runs");
            self.note(&exit);
            match exit {
                VmExit::StepLimit | VmExit::Halted => break,
                // Idle twice at one step: the guest waits for an input the
                // script delivers later.
                VmExit::Idle if idle_at == Some(self.machine.step_count()) => break,
                VmExit::Idle => idle_at = Some(self.machine.step_count()),
                _ => {}
            }
        }
    }
}
