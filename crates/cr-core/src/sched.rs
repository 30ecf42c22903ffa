//! Resolution scheduling: one bounded queue.
//!
//! Dataset-wide conflict resolution (Section VII's Fig. 8 sweeps, and the
//! 10⁵–10⁶-entity datasets the paper's motivation cites) is a batch of
//! *independent* per-entity resolutions: the Fig. 4 loop resolves each
//! entity on its own, so a sweep is a plain fan-out of independent jobs.
//! The scheduler is one blocking bounded MPMC queue. A producer on the
//! calling thread pushes `(index, specification)` items; `workers`
//! threads pop them, resolve each entity and hand the outcome to a sink.
//!
//! * [`resolve_stream`] is the general form: the caller's iterator is the
//!   producer (revision ingestion, a dataset generator, a network reader)
//!   and its sink folds outcomes as they complete. When resolution falls
//!   behind, the producer blocks in `push` instead of buffering
//!   unboundedly — the queue's high-water mark and stall count are
//!   reported in [`SchedTelemetry`] — so at most `queue_cap + workers`
//!   specifications are alive at once. The repository benchmark's `batch`
//!   workload (`perfbench/`) drives this path over its 10⁵-entity
//!   power-law population.
//! * [`resolve_batch`] feeds a slice through the same queue by reference
//!   and collects the outcomes in input order — the entry point for
//!   dataset sweeps.
//!
//! Workers recycle per-entity solver allocations through a pooled
//! [`cr_sat::SolverScratch`] (`Resolver::resolve_pooled`): a
//! scratch-built solver is state-identical to a fresh one, so pooling is
//! invisible to outcomes.
//!
//! # Outcome equality
//!
//! Scheduling only moves whole entities between threads: each entity is
//! resolved by exactly one worker with the same per-entity state a serial
//! run builds. `tests/sched_equivalence.rs` sweeps worker counts over
//! seeded power-law batches that contain a giant entity and asserts
//! outcome equality of [`resolve_batch`] and [`resolve_stream`] against
//! the single-threaded run; it also checks that a never-full stream
//! records no backpressure stall.

use std::borrow::Borrow;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, OnceLock};

use crate::framework::{ResolutionOutcome, Resolver, UserOracle};
use crate::spec::Specification;

/// The scheduler's two knobs.
#[derive(Clone, Copy, Debug)]
pub struct SchedulerConfig {
    /// Worker thread count. Clamped to at least 1.
    pub workers: usize,
    /// Capacity of the queue between the producer and the workers — the
    /// backpressure bound.
    pub queue_cap: usize,
}

impl SchedulerConfig {
    /// The default configuration at a given worker count — what dataset
    /// sweeps pass to [`resolve_batch`].
    pub fn with_workers(workers: usize) -> Self {
        SchedulerConfig {
            workers,
            queue_cap: 256,
        }
    }
}

/// Counters describing what the scheduler did. `tasks` is the entity
/// count; the queue figures depend on runtime interleaving.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SchedTelemetry {
    /// Workers the run used.
    pub workers: usize,
    /// Entities resolved.
    pub tasks: usize,
    /// Resolutions whose solver was built from pooled scratch (the first
    /// resolution of each worker necessarily starts cold).
    pub scratch_reuses: usize,
    /// Peak occupancy of the queue.
    pub queue_high_water: usize,
    /// Producer pushes that had to block on a full queue — nonzero means
    /// backpressure engaged.
    pub backpressure_stalls: usize,
}

/// Resolves `specs` through the scheduler's queue and returns the outcomes
/// in input order plus the run's telemetry. `make_oracle` builds the
/// per-entity user oracle from the entity's index. `config.workers` is
/// clamped to `1..=specs.len()`; an empty slice reports `workers == 0`.
/// Outcomes are identical for every `config` — see the module docs.
pub fn resolve_batch<O, F>(
    resolver: &Resolver,
    specs: &[Specification],
    make_oracle: &F,
    config: &SchedulerConfig,
) -> (Vec<ResolutionOutcome>, SchedTelemetry)
where
    O: UserOracle,
    F: Fn(usize) -> O + Sync,
{
    if specs.is_empty() {
        return (Vec::new(), SchedTelemetry::default());
    }
    let config = SchedulerConfig {
        workers: config.workers.clamp(1, specs.len()),
        ..*config
    };
    let slots: Vec<OnceLock<ResolutionOutcome>> = specs.iter().map(|_| OnceLock::new()).collect();
    let telemetry = resolve_stream(
        resolver,
        specs.iter(),
        make_oracle,
        &config,
        &|i, outcome| {
            slots[i].set(outcome).expect("each entity resolved once");
        },
    );
    let outcomes = slots
        .into_iter()
        .map(|slot| slot.into_inner().expect("every entity resolved"))
        .collect();
    (outcomes, telemetry)
}

/// A blocking bounded MPMC queue — the backpressure seam between entity
/// ingestion and resolution. `push` blocks while the queue is at
/// capacity (counting the stall); `pop` blocks while it is empty and not
/// yet closed. Occupancy never exceeds the capacity, and `close` wakes
/// every blocked consumer for shutdown.
struct BoundedQueue<T> {
    inner: Mutex<QueueInner<T>>,
    not_full: Condvar,
    not_empty: Condvar,
    cap: usize,
}

struct QueueInner<T> {
    buf: VecDeque<T>,
    closed: bool,
    high_water: usize,
    push_stalls: usize,
}

impl<T> BoundedQueue<T> {
    /// A queue holding at most `cap` items (`cap` ≥ 1 enforced).
    fn new(cap: usize) -> Self {
        BoundedQueue {
            inner: Mutex::new(QueueInner {
                buf: VecDeque::new(),
                closed: false,
                high_water: 0,
                push_stalls: 0,
            }),
            not_full: Condvar::new(),
            not_empty: Condvar::new(),
            cap: cap.max(1),
        }
    }

    /// Enqueues `item`, blocking while the queue is full. Each push that
    /// finds the queue full counts one stall (however long it waits).
    /// Panics if the queue was closed (producers own the close).
    fn push(&self, item: T) {
        let mut inner = self.inner.lock().unwrap();
        if inner.buf.len() >= self.cap {
            inner.push_stalls += 1;
            while inner.buf.len() >= self.cap {
                inner = self.not_full.wait(inner).unwrap();
            }
        }
        assert!(!inner.closed, "push after close");
        inner.buf.push_back(item);
        let len = inner.buf.len();
        inner.high_water = inner.high_water.max(len);
        drop(inner);
        self.not_empty.notify_one();
    }

    /// Dequeues the oldest item, blocking while the queue is empty;
    /// `None` once the queue is closed *and* drained.
    fn pop(&self) -> Option<T> {
        let mut inner = self.inner.lock().unwrap();
        loop {
            if let Some(item) = inner.buf.pop_front() {
                drop(inner);
                self.not_full.notify_one();
                return Some(item);
            }
            if inner.closed {
                return None;
            }
            inner = self.not_empty.wait(inner).unwrap();
        }
    }

    /// Marks the stream complete: consumers drain the remainder and then
    /// observe `None`.
    fn close(&self) {
        let mut inner = self.inner.lock().unwrap();
        inner.closed = true;
        drop(inner);
        self.not_empty.notify_all();
    }

    /// `(high_water, push_stalls)` so far.
    fn stats(&self) -> (usize, usize) {
        let inner = self.inner.lock().unwrap();
        (inner.high_water, inner.push_stalls)
    }

    /// Current occupancy.
    #[cfg(test)]
    fn len(&self) -> usize {
        self.inner.lock().unwrap().buf.len()
    }
}

/// Streaming resolution with ingestion backpressure: the caller's
/// `entities` iterator runs on the calling thread and feeds a
/// `BoundedQueue` of capacity `config.queue_cap`; `config.workers`
/// workers consume, resolve (with pooled scratch) and hand each outcome
/// to `sink` as `(entity index, outcome)` — concurrently and out of input
/// order, so the sink must synchronise its own state. At most
/// `queue_cap + workers` items are alive at any moment regardless of
/// dataset size. Items are owned specifications or references to them.
pub fn resolve_stream<O, F, S, I>(
    resolver: &Resolver,
    entities: I,
    make_oracle: &F,
    config: &SchedulerConfig,
    sink: &S,
) -> SchedTelemetry
where
    I: Iterator,
    I::Item: Borrow<Specification> + Send,
    O: UserOracle,
    F: Fn(usize) -> O + Sync,
    S: Fn(usize, ResolutionOutcome) + Sync,
{
    let workers = config.workers.max(1);
    let queue: BoundedQueue<(usize, I::Item)> = BoundedQueue::new(config.queue_cap);
    let tasks = AtomicUsize::new(0);
    let scratch_reuses = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let (queue, tasks, scratch_reuses) = (&queue, &tasks, &scratch_reuses);
            scope.spawn(move || {
                let mut scratch: Option<cr_sat::SolverScratch> = None;
                while let Some((i, spec)) = queue.pop() {
                    tasks.fetch_add(1, Ordering::Relaxed);
                    if scratch.is_some() {
                        scratch_reuses.fetch_add(1, Ordering::Relaxed);
                    }
                    let mut oracle = make_oracle(i);
                    let outcome = resolver.resolve_pooled(spec.borrow(), &mut oracle, &mut scratch);
                    sink(i, outcome);
                }
            });
        }
        // Producer: enumerate on the calling thread; a full queue blocks
        // ingestion right here instead of buffering.
        for (i, spec) in entities.enumerate() {
            queue.push((i, spec));
        }
        queue.close();
    });
    let (high_water, stalls) = queue.stats();
    SchedTelemetry {
        workers,
        tasks: tasks.into_inner(),
        scratch_reuses: scratch_reuses.into_inner(),
        queue_high_water: high_water,
        backpressure_stalls: stalls,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    #[test]
    fn bounded_queue_fifo_and_close() {
        let q: BoundedQueue<u32> = BoundedQueue::new(4);
        q.push(1);
        q.push(2);
        q.push(3);
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        q.close();
        assert_eq!(q.pop(), Some(3), "close drains the remainder first");
        assert_eq!(q.pop(), None);
        assert_eq!(q.stats(), (3, 0), "never full: no stalls; high water 3");
    }

    #[test]
    fn bounded_queue_blocks_at_cap_without_deadlock() {
        // Producer pushes 64 items through a cap-4 queue. The consumer
        // starts only once the producer has filled the queue and stalled
        // on the next push, so the stall is forced rather than left to
        // thread timing. Occupancy must never exceed the cap, and the
        // whole thing must terminate (no deadlock at the cap boundary).
        const N: usize = 64;
        const CAP: usize = 4;
        let q: BoundedQueue<usize> = BoundedQueue::new(CAP);
        let over_cap = AtomicBool::new(false);
        let mut seen = Vec::new();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                for i in 0..N {
                    q.push(i);
                    if q.len() > CAP {
                        over_cap.store(true, Ordering::Relaxed);
                    }
                }
                q.close();
            });
            while q.stats().1 == 0 {
                std::thread::yield_now();
            }
            assert_eq!(q.len(), CAP, "the producer stalls only on a full queue");
            while let Some(i) = q.pop() {
                if q.len() > CAP {
                    over_cap.store(true, Ordering::Relaxed);
                }
                seen.push(i);
            }
        });
        assert_eq!(seen, (0..N).collect::<Vec<_>>(), "FIFO, nothing lost");
        assert!(!over_cap.load(Ordering::Relaxed), "occupancy stayed ≤ cap");
        let (high_water, stalls) = q.stats();
        assert_eq!(high_water, CAP);
        assert!(stalls > 0, "a 64-item burst through cap 4 must stall");
    }

    #[test]
    fn bounded_queue_many_consumers_terminate() {
        let q: BoundedQueue<usize> = BoundedQueue::new(2);
        let popped = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    while q.pop().is_some() {
                        popped.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
            for i in 0..32 {
                q.push(i);
            }
            q.close();
        });
        assert_eq!(popped.load(Ordering::Relaxed), 32);
    }
}
