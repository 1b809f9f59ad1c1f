//! A miss cannot hide in the bytecode CPU, and a step it stops changes
//! nothing.
//!
//! For each instruction that touches memory or the disk, a program whose
//! first touch of some leaf is that instruction runs twice from the same
//! image: once with the leaf staged with its contents, once staged byteless
//! (`LeafStore::stage_byteless`).  On the byteless machine the step must
//! come back as `VmError::Miss` — not a stack fault, not a guest error —
//! with the CPU state (pc, registers, flag), the device state (NIC queue and
//! every counter), the step count, every dirty bit and every leaf hash as
//! they were.  Once the missed leaves are supplied, the run must equal the
//! resident one: every exit, the step count, the machine digest and the
//! first-touch fault order of both stores.

use avm_crypto::sha256::{sha256, Digest};
use avm_vm::bytecode::assemble;
use avm_vm::{
    GuestRegistry, Machine, StopCondition, VmError, VmExit, VmImage, CHUNK_SIZE, PAGE_SIZE,
};

/// Memory leaf of the data every case touches (0x4000).
const DATA: usize = 0x4000 / CHUNK_SIZE;
/// Memory leaf of the stack slot below 0x6000.
const STACK: usize = 0x5ff8 / CHUNK_SIZE;

/// One program and the leaves `(store, leaf, contents)` staged for it.
struct Case {
    name: &'static str,
    src: &'static str,
    staged: Vec<(usize, usize, Vec<u8>)>,
    packet: Option<Vec<u8>>,
}

fn image(src: &str) -> VmImage {
    VmImage::bytecode("miss", 64 * 1024, assemble(src, 0).unwrap(), 0, 0)
        .with_disk(vec![0u8; 2 * PAGE_SIZE])
}

fn data_chunk() -> (usize, usize, Vec<u8>) {
    (0, DATA, (0..CHUNK_SIZE).map(|i| i as u8).collect())
}

fn disk_block() -> (usize, usize, Vec<u8>) {
    (1, 0, (0..CHUNK_SIZE).map(|i| (i * 7) as u8).collect())
}

fn cases() -> Vec<Case> {
    let case = |name, src, staged| Case {
        name,
        src,
        staged,
        packet: None,
    };
    // `ret`'s stack slot holds the address of its `halt` (offset 11).
    let mut return_slot = vec![0u8; CHUNK_SIZE];
    return_slot[0x5ff8 % CHUNK_SIZE..].copy_from_slice(&11u64.to_le_bytes());
    // The fetch case's code runs on into chunk 1: stage the image's own
    // bytes there.
    let fetch_src = "jmp start\n.space 496\nstart:\nmovi r0, 7\nhalt";
    let machine = Machine::from_image(&image(fetch_src), &GuestRegistry::new()).unwrap();
    let code = machine.memory().chunk(1).unwrap().to_vec();
    vec![
        case("fetch", fetch_src, vec![(0, 1, code)]),
        case(
            "load",
            "movi r1, 0x4000\nload r2, r1, 8\nhalt",
            vec![data_chunk()],
        ),
        case(
            "store",
            "movi r1, 0x4000\nmovi r2, 5\nstore r2, r1, 8\nhalt",
            vec![data_chunk()],
        ),
        case(
            "loadb",
            "movi r1, 0x4000\nloadb r2, r1, 3\nhalt",
            vec![data_chunk()],
        ),
        case(
            "storeb",
            "movi r1, 0x4000\nmovi r2, 5\nstoreb r2, r1, 3\nhalt",
            vec![data_chunk()],
        ),
        case(
            "push",
            "movi r15, 0x6000\nmovi r0, 9\npush r0\nhalt",
            vec![(0, STACK, vec![3; CHUNK_SIZE])],
        ),
        case(
            "pop",
            "movi r15, 0x5ff8\npop r0\nhalt",
            vec![(0, STACK, vec![3; CHUNK_SIZE])],
        ),
        case(
            "call",
            "movi r15, 0x6000\ncall f\nhalt\nf:\nret",
            vec![(0, STACK, vec![3; CHUNK_SIZE])],
        ),
        case(
            "ret",
            "movi r15, 0x5ff8\nret\nhalt",
            vec![(0, STACK, return_slot)],
        ),
        Case {
            packet: Some(b"hello".to_vec()),
            ..case(
                "recv",
                "movi r1, 0x4000\nmovi r2, 64\nrecv r0, r1, r2\nhalt",
                vec![data_chunk()],
            )
        },
        case(
            "send",
            "movi r1, 0x4000\nmovi r2, 16\nsend r1, r2\nhalt",
            vec![data_chunk()],
        ),
        case(
            "out",
            "movi r1, 0x4000\nmovi r2, 16\nout r1, r2\nhalt",
            vec![data_chunk()],
        ),
        case(
            "diskrd",
            "movi r1, 8\nmovi r2, 0x4000\nmovi r3, 16\ndiskrd r1, r2, r3\nhalt",
            vec![data_chunk(), disk_block()],
        ),
        case(
            "diskwr",
            "movi r1, 8\nmovi r2, 0x4000\nmovi r3, 16\ndiskwr r1, r2, r3\nhalt",
            vec![data_chunk(), disk_block()],
        ),
    ]
}

/// Everything a refused step must leave as it was.
#[derive(Debug, PartialEq)]
struct Observed {
    cpu: Vec<u8>,
    devices: Vec<u8>,
    step: u64,
    dirty: Vec<Vec<usize>>,
    hashes: Vec<Digest>,
}

fn observe(machine: &Machine) -> Observed {
    let stores = machine.stores();
    Observed {
        cpu: machine.save_cpu_state(),
        devices: machine.devices().save_volatile(),
        step: machine.step_count(),
        dirty: stores.iter().map(|s| s.dirty_leaves()).collect(),
        hashes: stores
            .iter()
            .flat_map(|s| (0..s.leaf_count()).map(|i| s.leaf_hash(i).unwrap()))
            .collect(),
    }
}

fn machine(case: &Case, byteless: bool) -> Machine {
    let mut machine = Machine::from_image(&image(case.src), &GuestRegistry::new()).unwrap();
    for (store, leaf, content) in &case.staged {
        let store = &mut machine.stores_mut()[*store];
        let hash = sha256(content);
        match byteless {
            true => store.stage_byteless(*leaf, hash).unwrap(),
            false => store.stage_lazy(*leaf, content.clone(), hash).unwrap(),
        }
    }
    if let Some(packet) = &case.packet {
        machine.inject_packet(packet.clone());
    }
    machine
}

/// Runs `machine` one step at a time to its halt, supplying whatever a
/// refused step missed from `case`.  Returns every exit and the misses.
fn run(case: &Case, machine: &mut Machine) -> (Vec<VmExit>, usize) {
    let (mut exits, mut misses) = (Vec::new(), 0);
    loop {
        let before = observe(machine);
        match machine.run(StopCondition::AtStep(machine.step_count() + 1)) {
            Err(VmError::Miss) => {
                misses += 1;
                assert_eq!(
                    observe(machine),
                    before,
                    "{}: the miss changed state",
                    case.name
                );
                let mut supplied = 0;
                for (store, leaf, content) in &case.staged {
                    let store = &mut machine.stores_mut()[*store];
                    if store.missed().contains(leaf) {
                        store.supply(*leaf, content.clone()).unwrap();
                        supplied += 1;
                    }
                }
                assert!(supplied > 0, "{}: a miss names no leaf", case.name);
            }
            Ok(VmExit::Halted) => return (exits, misses),
            Ok(VmExit::StepLimit) => {}
            Ok(exit) => exits.push(exit),
            Err(other) => panic!("{}: {other}", case.name),
        }
    }
}

#[test]
fn every_memory_touching_instruction_resumes_after_a_miss() {
    for case in cases() {
        let mut resident = machine(&case, false);
        let mut byteless = machine(&case, true);
        let (resident_exits, resident_misses) = run(&case, &mut resident);
        let (exits, misses) = run(&case, &mut byteless);
        assert_eq!(resident_misses, 0, "{}", case.name);
        let leaves = case.staged.len();
        assert!(
            (1..=leaves).contains(&misses),
            "{}: {misses} misses",
            case.name
        );
        assert_eq!(exits, resident_exits, "{}", case.name);
        assert_eq!(
            byteless.step_count(),
            resident.step_count(),
            "{}",
            case.name
        );
        assert_eq!(
            byteless.state_digest(),
            resident.state_digest(),
            "{}",
            case.name
        );
        for (lazy, full) in byteless.stores().iter().zip(resident.stores()) {
            assert_eq!(lazy.faulted(), full.faulted(), "{}", case.name);
            assert!(lazy.missed().is_empty());
        }
        let faulted: usize = resident.stores().iter().map(|s| s.faulted().len()).sum();
        assert!(
            faulted > 0,
            "{}: the case touched nothing staged",
            case.name
        );
    }
}
