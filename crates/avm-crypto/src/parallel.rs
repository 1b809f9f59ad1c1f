//! The one place the workspace starts threads: a scoped split into parts.
//!
//! [`in_parts`] runs part 0 on the calling thread and every other part on a
//! scoped thread of its own.  A part borrows its input where it lies — a
//! slice of the caller's batch, a range of a downloaded log segment — so
//! nothing is copied to hand it over, and every thread is joined before the
//! call returns.  Its callers:
//!
//! * [`sha256_batch`] hashes a batch of byte slices in input order, in
//!   [`batch_workers_for`] parts once the batch carries enough work;
//! * `avm_log::verify`'s chain and segment checks, in `parts_for` parts;
//! * the whole-log audit, whose syntactic phase runs beside its replay;
//! * the segment-parallel replay engine, one part per lane.
//!
//! Spawning and joining a thread costs tens of microseconds, so each caller
//! splits only above a threshold and a small batch never leaves the calling
//! thread.  The host's core count is read once per process ([`cores`]).
//!
//! Within every part, hashing runs through the multi-buffer
//! [`sha256_multi`] core, which compresses up to 8 independent messages per
//! pass, so thread-level and lane-level parallelism compose.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};

use crate::sha256::{sha256_multi, Digest};

/// Minimum number of inputs each part of a [`sha256_batch`] must receive
/// before an extra thread is worth spawning (the count-based bound, sized
/// for 512 B chunk leaves).
pub const MIN_PER_WORKER: usize = 64;

/// Minimum payload bytes each part of a [`sha256_batch`] must receive
/// before an extra thread is worth spawning — the *measured-cost* bound:
/// SHA-256 time scales with input bytes, and 32 KiB of hashing (a few
/// hundred µs) comfortably amortises the spawn.  Equal to `MIN_PER_WORKER`
/// 512 B chunks, while batches of larger inputs (4 KiB disk blocks, whole
/// sections) fan out at proportionally smaller counts.
pub const MIN_BYTES_PER_WORKER: usize = MIN_PER_WORKER * 512;

/// Hard cap on the threads one [`sha256_batch`] occupies (the calling
/// thread included) — the hashing stage is meant to soak up a few
/// otherwise-idle cores, not the whole machine.
pub const MAX_WORKERS: usize = 8;

/// The host's core count (1 if it cannot be read), read once per process:
/// the read goes through the cgroup files on Linux and costs tens of
/// microseconds.
pub fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, NonZeroUsize::get))
}

/// The number of parts [`sha256_batch`] hashes `inputs` in on this host:
/// scales with the *work* in the batch — both input count and total payload
/// bytes.  Tiny dirty sets stay serial; a handful of large inputs still
/// splits even though their count alone would not justify it.
pub fn batch_workers_for(inputs: &[&[u8]]) -> usize {
    let total_bytes: usize = inputs.iter().map(|i| i.len()).sum();
    let by_count = inputs.len() / MIN_PER_WORKER;
    let by_bytes = total_bytes / MIN_BYTES_PER_WORKER;
    cores()
        .min(MAX_WORKERS)
        .min(by_count.max(by_bytes))
        .min(inputs.len())
        .max(1)
}

/// Parts [`sha256_batch`] ran off the calling thread.
static HASH_JOBS: AtomicU64 = AtomicU64::new(0);
/// Parts every other [`in_parts`] caller ran off the calling thread.
static TASKS: AtomicU64 = AtomicU64::new(0);

/// How many parts ran off the calling thread, for the standalone
/// benchmark's `crypto.pool_*` keys.  ROADMAP item 4-I(c) deletes it with
/// those keys.
#[derive(Debug, Clone)]
pub struct PoolStats {
    /// Parts [`sha256_batch`] ran on a thread of their own.
    pub jobs: u64,
    /// Parts of every other [`in_parts`] call run on a thread of their own.
    pub tasks: u64,
}

impl PoolStats {
    /// Counters accumulated since `earlier` — for per-run telemetry deltas.
    pub fn since(&self, earlier: &PoolStats) -> PoolStats {
        PoolStats {
            jobs: self.jobs - earlier.jobs,
            tasks: self.tasks - earlier.tasks,
        }
    }
}

/// The counters of every split this process has run.  ROADMAP item
/// 4-I(c) deletes it with [`PoolStats`].
pub fn global_pool_stats() -> PoolStats {
    PoolStats {
        jobs: HASH_JOBS.load(Ordering::Relaxed),
        tasks: TASKS.load(Ordering::Relaxed),
    }
}

/// The threads a split may add to the calling thread on this host.
pub struct ThreadBudget {
    workers: usize,
}

impl ThreadBudget {
    /// `min(cores, MAX_WORKERS) − 1`, at least 1: the threads a split adds
    /// to the calling thread, which always runs a part of its own.
    pub fn workers(&self) -> usize {
        self.workers
    }
}

/// This host's [`ThreadBudget`], for the standalone benchmark's lane count.
/// ROADMAP item 4-I(c) deletes it.
pub fn global_pool() -> &'static ThreadBudget {
    static BUDGET: OnceLock<ThreadBudget> = OnceLock::new();
    BUDGET.get_or_init(|| ThreadBudget {
        workers: cores().min(MAX_WORKERS).saturating_sub(1).max(1),
    })
}

/// `part(i, input)` for every input `i`, results in input order, each part
/// taking its own input — a disjoint slice of one output buffer, say —
/// exactly once: part 0 on the calling thread, every other on a scoped
/// thread of its own, or on the calling thread too should the host refuse
/// a thread.  A panicking part re-raises its panic in the caller.
pub fn in_parts<T: Send, R: Send>(inputs: Vec<T>, part: impl Fn(usize, T) -> R + Sync) -> Vec<R> {
    split(inputs, &TASKS, part)
}

/// [`in_parts`], counting the parts run off the calling thread in `spawned`.
fn split<T: Send, R: Send>(
    inputs: Vec<T>,
    spawned: &AtomicU64,
    part: impl Fn(usize, T) -> R + Sync,
) -> Vec<R> {
    if inputs.len() <= 1 {
        return inputs
            .into_iter()
            .enumerate()
            .map(|(i, input)| part(i, input))
            .collect();
    }
    let slots: Vec<Mutex<Option<T>>> = inputs.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let run = |i: usize| {
        let input = slots[i]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take()
            .expect("each part runs once");
        part(i, input)
    };
    std::thread::scope(|scope| {
        let run = &run;
        let handles: Vec<_> = (1..slots.len())
            .map(|i| {
                std::thread::Builder::new()
                    .spawn_scoped(scope, move || run(i))
                    .map_err(|_| i)
            })
            .collect();
        let threads = handles.iter().filter(|handle| handle.is_ok()).count();
        // Relaxed: a statistic; it publishes nothing.
        spawned.fetch_add(threads as u64, Ordering::Relaxed);
        let mut results = Vec::with_capacity(slots.len());
        results.push(run(0));
        for handle in handles {
            results.push(match handle {
                Ok(handle) => handle
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic)),
                Err(i) => run(i),
            });
        }
        results
    })
}

/// Hashes every input slice, returning digests in input order.
///
/// Equivalent to `inputs.iter().map(|i| sha256(i)).collect()` — bit-identical
/// output, checked by tests — but a batch with enough work is split into
/// [`batch_workers_for`] contiguous parts that [`in_parts`] hashes side by
/// side, each straight from the borrowed slices.  A tiny dirty set never
/// leaves the calling thread.
pub fn sha256_batch(inputs: &[&[u8]]) -> Vec<Digest> {
    sha256_in_parts(inputs, batch_workers_for(inputs))
}

/// [`sha256_batch`] in `parts` contiguous parts (clamped to the input
/// count) whatever the host: the first `len % parts` parts take one input
/// more than the rest.
fn sha256_in_parts(inputs: &[&[u8]], parts: usize) -> Vec<Digest> {
    let parts = parts.min(inputs.len()).max(1);
    if parts == 1 {
        return sha256_multi(inputs);
    }
    let per = inputs.len() / parts;
    let rem = inputs.len() % parts;
    let mut rest = inputs;
    let ranges: Vec<&[&[u8]]> = (0..parts)
        .map(|i| {
            let (range, tail) = rest.split_at(per + usize::from(i < rem));
            rest = tail;
            range
        })
        .collect();
    split(ranges, &HASH_JOBS, |_, range| sha256_multi(range)).concat()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha256::sha256;
    use std::sync::MutexGuard;

    /// Held by every test that splits, so each can read exact counter
    /// deltas while the others wait.
    fn counted() -> MutexGuard<'static, ()> {
        static COUNTED: Mutex<()> = Mutex::new(());
        COUNTED.lock().unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn matches_serial_hashing_for_all_sizes() {
        let _counted = counted();
        // Straddle the serial/parallel threshold in both directions.
        for n in [0usize, 1, 5, MIN_PER_WORKER, 4 * MIN_PER_WORKER + 3] {
            let data: Vec<Vec<u8>> = (0..n)
                .map(|i| vec![(i % 251) as u8; 64 + (i % 7) * 100])
                .collect();
            let slices: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
            let batch = sha256_batch(&slices);
            let serial: Vec<Digest> = slices.iter().map(|s| sha256(s)).collect();
            assert_eq!(batch, serial, "n={n}");
        }
    }

    #[test]
    fn adaptive_worker_count_scales_with_batch_work() {
        let slices_of =
            |n: usize, len: usize| -> Vec<Vec<u8>> { (0..n).map(|_| vec![0u8; len]).collect() };
        // Empty and tiny dirty sets: strictly serial.
        assert_eq!(batch_workers_for(&[]), 1);
        let tiny = slices_of(3, 512);
        let tiny_refs: Vec<&[u8]> = tiny.iter().map(|v| v.as_slice()).collect();
        assert_eq!(batch_workers_for(&tiny_refs), 1);
        // Chunk-sized inputs split by count alone.
        for n in [MIN_PER_WORKER - 1, MIN_PER_WORKER, 4 * MIN_PER_WORKER] {
            let chunks = slices_of(n, 512);
            let refs: Vec<&[u8]> = chunks.iter().map(|v| v.as_slice()).collect();
            let by_count = cores().min(MAX_WORKERS).min(n / MIN_PER_WORKER).max(1);
            assert_eq!(batch_workers_for(&refs), by_count, "n={n}");
        }
        // A few large inputs parallelise even though their count alone
        // would not justify a second thread (if cores are available).
        let blocks = slices_of(16, 64 * 1024);
        let refs: Vec<&[u8]> = blocks.iter().map(|v| v.as_slice()).collect();
        let workers = batch_workers_for(&refs);
        assert!(workers <= MAX_WORKERS.min(16));
        if cores() > 1 {
            assert!(
                workers > 1,
                "16 × 64 KiB of hashing must fan out on a multi-core host"
            );
        }
        // Never more workers than inputs.
        let two = slices_of(2, 10 * MIN_BYTES_PER_WORKER);
        let refs: Vec<&[u8]> = two.iter().map(|v| v.as_slice()).collect();
        assert!(batch_workers_for(&refs) <= 2);
    }

    #[test]
    fn pool_output_matches_serial_for_every_part_count() {
        let _counted = counted();
        let data: Vec<Vec<u8>> = (0..97).map(|i| vec![i as u8; 1 + (i % 50)]).collect();
        let slices: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        let serial: Vec<Digest> = slices.iter().map(|s| sha256(s)).collect();
        // Every part count up to 9, and beyond the input count; all must
        // concatenate back in input order, with one hash job per part off
        // the calling thread.
        for parts in (1usize..=9).chain([97, 200]) {
            let before = global_pool_stats();
            assert_eq!(sha256_in_parts(&slices, parts), serial, "parts={parts}");
            let delta = global_pool_stats().since(&before);
            assert_eq!(delta.jobs, parts.min(97) as u64 - 1, "parts={parts}");
            assert_eq!(delta.tasks, 0, "parts={parts}");
        }
        assert!(sha256_in_parts(&[], 4).is_empty());
    }

    #[test]
    fn in_parts_preserves_input_order_and_counts_tasks() {
        let _counted = counted();
        let before = global_pool_stats();
        // Empty and singleton calls start no thread.
        assert!(in_parts(Vec::<u64>::new(), |_, i| i).is_empty());
        assert_eq!(in_parts(vec![7u64], |_, i| i), vec![7]);
        assert_eq!(global_pool_stats().since(&before).tasks, 0);
        // Results come back in input order regardless of which thread ran
        // each part or how long it took.
        let out = in_parts((0..25u64).collect(), |index, i| {
            assert_eq!(index as u64, i);
            if i % 3 == 0 {
                std::thread::sleep(std::time::Duration::from_micros(50 * (25 - i)));
            }
            i * i
        });
        assert_eq!(out, (0..25u64).map(|i| i * i).collect::<Vec<_>>());
        let delta = global_pool_stats().since(&before);
        assert_eq!(delta.tasks, 24); // the caller ran part 0
        assert_eq!(delta.jobs, 0); // no hash parts
    }

    #[test]
    fn a_part_panicking_on_its_own_thread_panics_in_the_caller() {
        let _counted = counted();
        let caller = std::thread::current().id();
        let panic = std::panic::catch_unwind(|| {
            in_parts(vec![0u8; 3], |i, _| {
                if i == 2 && std::thread::current().id() != caller {
                    panic!("part 2 failed");
                }
                i
            })
        })
        .expect_err("part 2's panic reaches the caller");
        assert_eq!(panic.downcast_ref::<&str>(), Some(&"part 2 failed"));
    }

    #[test]
    fn pool_stats_since_reports_the_delta() {
        let _counted = counted();
        let before = global_pool_stats();
        in_parts((0..3u64).collect(), |_, i| i);
        let delta = global_pool_stats().since(&before);
        assert_eq!(delta.tasks, 2);
        assert_eq!(delta.jobs, 0);
    }

    #[test]
    fn global_pool_is_shared_and_reports_stats() {
        let _counted = counted();
        let workers = global_pool().workers();
        assert_eq!(workers, cores().min(MAX_WORKERS).saturating_sub(1).max(1));
        assert!(std::ptr::eq(global_pool(), global_pool()));
        let before = global_pool_stats();
        let data: Vec<Vec<u8>> = (0..4 * MIN_PER_WORKER)
            .map(|i| vec![i as u8; 512])
            .collect();
        let slices: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        let out = sha256_batch(&slices);
        assert_eq!(out[7], sha256(&data[7]));
        let delta = global_pool_stats().since(&before);
        assert_eq!(delta.jobs, batch_workers_for(&slices) as u64 - 1);
        assert_eq!(delta.tasks, 0);
        assert_eq!(global_pool().workers(), workers);
    }
}
