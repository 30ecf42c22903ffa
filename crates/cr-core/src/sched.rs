//! Sharded work-stealing resolution scheduling.
//!
//! Dataset-wide conflict resolution (Section VII's Fig. 8 sweeps, and the
//! 10⁵–10⁶-entity datasets the paper's motivation cites) is a batch of
//! *independent* per-entity resolutions whose costs follow a heavy tail:
//! most entities are a handful of tuples, a few are hundreds. A flat
//! atomic-counter fan-out handles the average case but has two structural
//! problems this module fixes:
//!
//! * **Per-entity queue traffic.** Tiny entities resolve in well under the
//!   cost of a queue round-trip; the scheduler *batches* runs of small
//!   entities into one task at build time.
//! * **Head-of-line giants.** One oversized entity pins a core for its
//!   whole round-0 instantiation while the other cores drain the cheap
//!   tail and go idle. The scheduler *splits* an oversized entity's Σ/Γ
//!   instantiation into range subtasks (over the combined constraint
//!   index space — see `SplitPlan` in the encode module) that thieves can
//!   pick up; the last subtask to finish replays the collected chunks
//!   through `EncodedSpec::encode_with_omega_chunks`, which reproduces
//!   the serial encoding byte-for-byte, and resolves the entity.
//!
//! # Structure
//!
//! Tasks are constructed **deterministically** from the input batch and
//! the [`SchedulerConfig`] thresholds — batching and splitting decisions
//! never depend on runtime timing, so the batch/split telemetry of a
//! given (dataset, config) pair is reproducible and, more importantly,
//! *what* is encoded and solved is identical at every worker count. Each
//! worker owns a deque (owner pops newest-first from the back; thieves
//! steal oldest-first from the front) and steals round-robin from its
//! siblings when its own deque runs dry. All tasks exist before the
//! workers start and tasks never spawn tasks, so a worker exits when
//! every deque is empty.
//!
//! Workers recycle per-entity solver allocations through a pooled
//! [`cr_sat::SolverScratch`] (`Resolver::resolve_pooled`): a
//! scratch-built solver is state-identical to a fresh one, so pooling is
//! invisible to outcomes.
//!
//! # Streaming and backpressure
//!
//! [`resolve_stream`] couples an entity *producer* (revision ingestion, a
//! dataset generator, a network reader) to the shard workers through a
//! [`BoundedQueue`]: when resolution falls behind, the producer blocks in
//! `push` instead of buffering unboundedly — the queue's high-water mark
//! and stall count are reported in [`SchedTelemetry`]. This is the
//! memory-bounded path the repository benchmark's `batch` workload
//! (`perfbench/`) drives over its 10⁵-entity power-law population: at
//! most `queue_cap + workers` specifications are alive at once, and
//! outcomes are folded into the caller's sink as they complete.
//!
//! # Outcome equality
//!
//! Scheduling only moves work between threads. Batches resolve their
//! entities in input order with the same per-entity state a solo run
//! would build; split subtasks instantiate constraint ranges whose
//! in-order concatenation is the serial emission stream; pooled scratch
//! yields state-identical solvers. `tests/sched_equivalence.rs` sweeps
//! worker counts and placements over seeded power-law batches and asserts
//! outcome equality against the single-threaded run; it also proves the
//! steal path live under [`Placement::Skewed`] and that a never-full
//! stream records no backpressure stall.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

use crate::encode::{EncodedSpec, InstanceConstraint, SplitPlan};
use crate::framework::{ResolutionOutcome, Resolver, UserOracle};
use crate::spec::Specification;

/// Tuning knobs of the scheduler. The defaults suit heavy-tailed entity
/// batches; tests pin thresholds to force specific task shapes.
#[derive(Clone, Copy, Debug)]
pub struct SchedulerConfig {
    /// Worker (shard) count. Clamped to at least 1; a single worker runs
    /// everything inline with no stealing.
    pub workers: usize,
    /// Maximum entities fused into one batch task. Batching amortises
    /// deque traffic over runs of small entities; 1 disables it.
    pub batch_max_entities: usize,
    /// Entities with at least this many tuples are never batched (they
    /// are enough work on their own to justify a task).
    pub large_tuple_threshold: usize,
    /// Entities with at least this many tuples get their Σ/Γ
    /// instantiation split into stealable subtasks. `usize::MAX` disables
    /// splitting.
    pub split_tuple_threshold: usize,
    /// Upper bound on subtasks per split entity (also bounded by the
    /// entity's combined constraint count).
    pub split_max_subtasks: usize,
    /// Where freshly built tasks are placed.
    pub placement: Placement,
    /// Capacity of the ingestion queue in [`resolve_stream`] — the
    /// backpressure bound between the producer and the workers.
    pub queue_cap: usize,
}

impl SchedulerConfig {
    /// The default configuration at a given worker count — what dataset
    /// sweeps pass to [`resolve_batch`].
    pub fn with_workers(workers: usize) -> Self {
        SchedulerConfig {
            workers,
            batch_max_entities: 8,
            large_tuple_threshold: 32,
            split_tuple_threshold: 192,
            split_max_subtasks: 4,
            placement: Placement::RoundRobin,
            queue_cap: 256,
        }
    }
}

/// Initial placement of tasks onto shard deques.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Placement {
    /// Task `t` starts on shard `t mod workers` — balanced by count, so
    /// stealing only happens when costs skew.
    RoundRobin,
    /// Every task starts on shard 0 — an adversarial placement that makes
    /// the other workers live entirely off steals. Used by the
    /// steal-liveness smoke and by tests; pointless in production.
    Skewed,
}

/// Counters describing what the scheduler actually did. Task counts
/// (batches, splits, sizes) are deterministic functions of the input and
/// config; steal counts depend on runtime interleaving.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SchedTelemetry {
    /// Workers the run used.
    pub workers: usize,
    /// Tasks executed (batch tasks count once, split subtasks each).
    pub tasks: usize,
    /// Tasks taken from another worker's deque.
    pub steals: usize,
    /// Multi-entity batch tasks built.
    pub batch_tasks: usize,
    /// Entities resolved inside multi-entity batches.
    pub batched_entities: usize,
    /// Largest batch built.
    pub max_batch: usize,
    /// Entities whose instantiation was split.
    pub split_entities: usize,
    /// Split subtasks built (≥ 2 per split entity).
    pub split_subtasks: usize,
    /// Resolutions whose solver was built from pooled scratch (the first
    /// resolution of each worker necessarily starts cold).
    pub scratch_reuses: usize,
    /// Peak occupancy of the streaming ingestion queue (stream mode only).
    pub queue_high_water: usize,
    /// Producer pushes that had to block on a full queue (stream mode
    /// only) — nonzero means backpressure engaged.
    pub backpressure_stalls: usize,
}

/// Shared counters, flattened into [`SchedTelemetry`] at the end of a run.
#[derive(Default)]
struct Counters {
    tasks: AtomicUsize,
    steals: AtomicUsize,
    scratch_reuses: AtomicUsize,
}

/// State of one split entity: the instantiation plan plus the chunk
/// rendezvous. The worker finishing the *last* range runs the merge +
/// resolve inline (its cache just produced the final chunk anyway).
struct SplitState {
    /// Index of the entity in the input batch.
    spec_idx: usize,
    plan: SplitPlan,
    /// One slot per subtask range, in range order.
    chunks: Mutex<Vec<Option<Vec<InstanceConstraint>>>>,
    /// Subtasks still running; the decrement-to-zero worker finishes.
    remaining: AtomicUsize,
}

/// One unit of deque work.
enum Task {
    /// Resolve a run of entities (batched small entities, or a single
    /// entity as the degenerate run).
    Run(Vec<usize>),
    /// Instantiate one constraint range of a split entity.
    SplitPart {
        state: Arc<SplitState>,
        part: usize,
        range: std::ops::Range<usize>,
    },
}

/// Resolves `specs` on the work-stealing pool and returns the outcomes in
/// input order plus the run's telemetry. `make_oracle` builds the
/// per-entity user oracle from the entity's index. Outcomes are identical
/// for every `config.workers` and [`Placement`] — see the module docs.
///
/// This is the entry point for dataset-wide sweeps: pass
/// [`SchedulerConfig::with_workers`] for the default task shapes.
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
        return (Vec::new(), SchedTelemetry { workers: 0, ..SchedTelemetry::default() });
    }
    let workers = config.workers.clamp(1, specs.len());
    let mut telemetry = SchedTelemetry { workers, ..SchedTelemetry::default() };

    // ---- Deterministic task construction (placement-independent). ----
    // Splitting pre-encodes with the engine's options, which only the
    // incremental path consumes; the from-scratch loop re-encodes per
    // round, so splitting would be wasted work there.
    let splittable = workers > 1 && resolver.config().incremental;
    let mut tasks: Vec<Task> = Vec::new();
    let mut run: Vec<usize> = Vec::new();
    let flush = |run: &mut Vec<usize>, tasks: &mut Vec<Task>, telemetry: &mut SchedTelemetry| {
        if run.is_empty() {
            return;
        }
        if run.len() > 1 {
            telemetry.batch_tasks += 1;
            telemetry.batched_entities += run.len();
            telemetry.max_batch = telemetry.max_batch.max(run.len());
        }
        tasks.push(Task::Run(std::mem::take(run)));
    };
    for (i, spec) in specs.iter().enumerate() {
        let tuples = spec.entity().len();
        if splittable && tuples >= config.split_tuple_threshold {
            let plan = SplitPlan::new(spec);
            let total = plan.total_constraints();
            let parts = config.split_max_subtasks.min(total).min(workers.max(2));
            if parts >= 2 {
                flush(&mut run, &mut tasks, &mut telemetry);
                telemetry.split_entities += 1;
                telemetry.split_subtasks += parts;
                let state = Arc::new(SplitState {
                    spec_idx: i,
                    plan,
                    chunks: Mutex::new((0..parts).map(|_| None).collect()),
                    remaining: AtomicUsize::new(parts),
                });
                // Balanced contiguous ranges covering [0, total) in order.
                let base = total / parts;
                let extra = total % parts;
                let mut start = 0usize;
                for part in 0..parts {
                    let len = base + usize::from(part < extra);
                    tasks.push(Task::SplitPart {
                        state: Arc::clone(&state),
                        part,
                        range: start..start + len,
                    });
                    start += len;
                }
                debug_assert_eq!(start, total);
                continue;
            }
            // Too few constraints to split: falls through to a plain run.
        }
        if tuples >= config.large_tuple_threshold || config.batch_max_entities <= 1 {
            flush(&mut run, &mut tasks, &mut telemetry);
            tasks.push(Task::Run(vec![i]));
            continue;
        }
        run.push(i);
        if run.len() >= config.batch_max_entities {
            flush(&mut run, &mut tasks, &mut telemetry);
        }
    }
    flush(&mut run, &mut tasks, &mut telemetry);
    telemetry.tasks = tasks.len();

    // ---- Placement. ----
    let shards: Vec<Mutex<VecDeque<Task>>> =
        (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
    for (t, task) in tasks.into_iter().enumerate() {
        let shard = match config.placement {
            Placement::RoundRobin => t % workers,
            Placement::Skewed => 0,
        };
        shards[shard].lock().unwrap().push_back(task);
    }

    // ---- Execution. ----
    let counters = Counters::default();
    let slots: Vec<OnceLock<ResolutionOutcome>> = specs.iter().map(|_| OnceLock::new()).collect();
    std::thread::scope(|scope| {
        for me in 0..workers {
            let shards = &shards;
            let slots = &slots;
            let counters = &counters;
            scope.spawn(move || {
                let mut scratch: Option<cr_sat::SolverScratch> = None;
                loop {
                    // Own deque first (back = newest, keeps caches warm),
                    // then steal round-robin from the front of siblings.
                    let mut task = shards[me].lock().unwrap().pop_back();
                    if task.is_none() {
                        for off in 1..workers {
                            let victim = (me + off) % workers;
                            if let Some(stolen) = shards[victim].lock().unwrap().pop_front() {
                                counters.steals.fetch_add(1, Ordering::Relaxed);
                                task = Some(stolen);
                                break;
                            }
                        }
                    }
                    let Some(task) = task else {
                        // All tasks pre-exist and tasks never spawn tasks,
                        // so empty-everywhere means done.
                        break;
                    };
                    counters.tasks.fetch_add(1, Ordering::Relaxed);
                    match task {
                        Task::Run(indices) => {
                            for i in indices {
                                let mut oracle = make_oracle(i);
                                if scratch.is_some() {
                                    counters.scratch_reuses.fetch_add(1, Ordering::Relaxed);
                                }
                                let outcome = resolver.resolve_pooled(
                                    &specs[i],
                                    &mut oracle,
                                    None,
                                    &mut scratch,
                                );
                                slots[i].set(outcome).expect("each entity resolved once");
                            }
                        }
                        Task::SplitPart { state, part, range } => {
                            let spec = &specs[state.spec_idx];
                            let chunk = state.plan.instantiate_range(spec, range);
                            state.chunks.lock().unwrap()[part] = Some(chunk);
                            if state.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                                // Last part in: merge in range order and
                                // resolve here.
                                let chunks: Vec<Vec<InstanceConstraint>> = state
                                    .chunks
                                    .lock()
                                    .unwrap()
                                    .iter_mut()
                                    .map(|c| c.take().expect("all parts delivered"))
                                    .collect();
                                let enc = EncodedSpec::encode_with_omega_chunks(
                                    spec,
                                    resolver.engine_encode_options(),
                                    chunks,
                                );
                                let i = state.spec_idx;
                                let mut oracle = make_oracle(i);
                                if scratch.is_some() {
                                    counters.scratch_reuses.fetch_add(1, Ordering::Relaxed);
                                }
                                let outcome = resolver.resolve_pooled(
                                    spec,
                                    &mut oracle,
                                    Some(enc),
                                    &mut scratch,
                                );
                                slots[i].set(outcome).expect("each entity resolved once");
                            }
                        }
                    }
                }
            });
        }
    });

    telemetry.steals = counters.steals.load(Ordering::Relaxed);
    telemetry.scratch_reuses = counters.scratch_reuses.load(Ordering::Relaxed);
    debug_assert_eq!(counters.tasks.load(Ordering::Relaxed), telemetry.tasks);
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
pub struct BoundedQueue<T> {
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
    pub fn new(cap: usize) -> Self {
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
    pub fn push(&self, item: T) {
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
    pub fn pop(&self) -> Option<T> {
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
    pub fn close(&self) {
        let mut inner = self.inner.lock().unwrap();
        inner.closed = true;
        drop(inner);
        self.not_empty.notify_all();
    }

    /// `(high_water, push_stalls)` so far.
    pub fn stats(&self) -> (usize, usize) {
        let inner = self.inner.lock().unwrap();
        (inner.high_water, inner.push_stalls)
    }

    /// Current occupancy (tests).
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().buf.len()
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Streaming resolution with ingestion backpressure: the caller's
/// `entities` iterator runs on the calling thread and feeds a
/// [`BoundedQueue`] of capacity `config.queue_cap`; `config.workers`
/// shard workers consume, resolve (with pooled scratch) and hand each
/// outcome to `sink` as `(entity index, outcome)` — concurrently and out
/// of input order, so the sink must synchronise its own state. At most
/// `queue_cap + workers` specifications are alive at any moment
/// regardless of dataset size.
pub fn resolve_stream<O, F, S, I>(
    resolver: &Resolver,
    entities: I,
    make_oracle: &F,
    config: &SchedulerConfig,
    sink: &S,
) -> SchedTelemetry
where
    I: Iterator<Item = Specification>,
    O: UserOracle,
    F: Fn(usize) -> O + Sync,
    S: Fn(usize, ResolutionOutcome) + Sync,
{
    let workers = config.workers.max(1);
    let queue: BoundedQueue<(usize, Specification)> = BoundedQueue::new(config.queue_cap);
    let counters = Counters::default();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let queue = &queue;
            let counters = &counters;
            scope.spawn(move || {
                let mut scratch: Option<cr_sat::SolverScratch> = None;
                while let Some((i, spec)) = queue.pop() {
                    counters.tasks.fetch_add(1, Ordering::Relaxed);
                    if scratch.is_some() {
                        counters.scratch_reuses.fetch_add(1, Ordering::Relaxed);
                    }
                    let mut oracle = make_oracle(i);
                    let outcome = resolver.resolve_pooled(&spec, &mut oracle, None, &mut scratch);
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
        tasks: counters.tasks.load(Ordering::Relaxed),
        scratch_reuses: counters.scratch_reuses.load(Ordering::Relaxed),
        queue_high_water: high_water,
        backpressure_stalls: stalls,
        ..SchedTelemetry::default()
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
