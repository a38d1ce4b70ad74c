//! The worker pool: the one executor of trial batches and indexed jobs.
//!
//! Every parallel trial run claims batches from these queues and folds
//! them in trial order. The process-wide [`WorkerPool`]
//! ([`global_pool`]) serves the sweep executor,
//! [`Simulation::run_until_precision`] and [`pool_map`]; a *sweep*
//! (dozens to hundreds of small `SimulationConfig` points, the shape
//! behind every figure family) would otherwise pay thread spawn/join and
//! scratch construction once per point. [`Simulation::run_parallel`]
//! and [`Simulation::run_parallel_traced`] run their single job through
//! [`run_one_shot`] instead, on workers that live for the call.
//!
//! * the global pool's workers are spawned once and live for the
//!   process; each owns a [`TrialScratch`] that is rebuilt in place
//!   across *scenarios*, not just across trials of one scenario;
//! * a trial run is a list of [`RangeJob`]s (one per sweep point);
//!   workers pull trial batches through a two-level discipline — scan
//!   jobs from a shared head cursor, claim the next batch from the first
//!   job that still has unclaimed trials — so batches from neighboring
//!   sweep points interleave and a small tail point never leaves
//!   workers idle;
//! * an observed job ([`Observe`]) gives each batch its own metrics
//!   registry and event buffer, returned beside the batch's [`Partial`];
//!   no borrowed recorder ever reaches a worker;
//! * a map run ([`pool_map`]) is `n` independent indexed jobs `f(i)`,
//!   claimed one index at a time in index order, with results returned
//!   in index order: the shape of the report's DES and protocol
//!   sections (one job per trial, churn interval or kill fraction),
//!   which own their state and do not go through the trial engine. Map
//!   jobs touch neither the telemetry trial/point counters nor any
//!   sweep statistics;
//! * the *calling* thread participates as a full worker (with a
//!   pool-owned scratch of its own), so a 1-thread pool executes
//!   entirely inline with no cross-thread handoff at all.
//!
//! A job must not call back into the global pool (`run_sweep`,
//! `run_until_precision`, `pool_map`): the caller holds the pool's
//! mutex for the whole run, so that would deadlock. [`global_pool`]
//! panics instead when called from inside a pool job.
//!
//! Determinism: the pool decides only *who* runs a trial or a job,
//! never *what* it is. Per-trial seeding makes every integer count
//! bit-identical to [`Simulation::run`], and batch outputs are merged
//! in trial order over thread-count-independent batch boundaries, so a
//! job's result — floats, metrics and event order included — is
//! byte-identical at every thread count. The merge stays per-job: each
//! [`RangeJob`] collects its own batch outputs, so sweep points never
//! mix. Map results come back in index order, so a caller that folds
//! them in that order reproduces its serial loop bit for bit.
//!
//! [`Simulation::run_parallel`]: crate::engine::Simulation::run_parallel
//! [`Simulation::run_parallel_traced`]: crate::engine::Simulation::run_parallel_traced

use crate::engine::{num_threads, Observation, Partial, Simulation, TrialQueue, TrialScratch};
use sos_observe::{
    telemetry, trace, Event, MemoryRecorder, MetricsRegistry, NullRecorder, Recorder,
};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::time::Instant;

/// One unit of pool work: run trials `start..end` of `sim` and merge
/// them into a single [`Partial`].
pub(crate) struct RangeJob {
    /// The simulation the trials belong to.
    pub sim: Arc<Simulation>,
    /// First trial index (inclusive).
    pub start: u64,
    /// Last trial index (exclusive); must be `> start`.
    pub end: u64,
    /// Whether completing this job counts as one sweep *point* for the
    /// live telemetry plane (true for sweep-executor jobs, false for
    /// the batch jobs of `run_until_precision`).
    pub point: bool,
    /// What the job records besides its trial counts.
    pub observe: Observe,
}

/// What a [`RangeJob`] records besides its trial counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Observe {
    /// Nothing: an untraced run.
    Off,
    /// Per-trial metrics only: a traced run whose recorder is disabled
    /// (disabled recorders also change how the engine ticks attacks).
    Metrics,
    /// Per-trial metrics and every event.
    Events,
}

/// The output of one job, or of one batch of it.
#[derive(Default)]
pub(crate) struct JobOutput {
    pub partial: Partial,
    /// Per-trial metrics; empty unless the job observes.
    pub metrics: MetricsRegistry,
    /// Events in trial order; empty unless the job observes
    /// [`Observe::Events`].
    pub events: Vec<Event>,
}

impl JobOutput {
    /// Runs trials `start..end` of `sim` as one batch.
    fn batch(
        sim: &Simulation,
        start: u64,
        end: u64,
        observe: Observe,
        scratch: &mut TrialScratch,
    ) -> Self {
        let events = MemoryRecorder::new();
        let recorder: &dyn Recorder = if observe == Observe::Events {
            &events
        } else {
            &NullRecorder
        };
        let mut obs = (observe != Observe::Off).then(|| Observation::new(recorder));
        JobOutput {
            partial: sim.run_trials(start, end, scratch, obs.as_mut()),
            metrics: obs.map(|o| o.metrics).unwrap_or_default(),
            events: events.take_events(),
        }
    }

    /// Folds `(batch_start, output)` pairs into one output in trial
    /// order. Completion order is racy; start order is not — merging by
    /// it makes the floating-point reduction tree a pure function of
    /// the batch boundaries, which [`TrialQueue::new`] keeps
    /// thread-count-independent, and concatenates events in trial order.
    fn merged_in_order(mut batches: Vec<(u64, JobOutput)>) -> Self {
        batches.sort_unstable_by_key(|(start, _)| *start);
        let mut merged = JobOutput::default();
        for (_, batch) in batches {
            merged.partial.merge(&batch.partial);
            merged.metrics.merge(&batch.metrics);
            merged.events.extend(batch.events);
        }
        merged
    }
}

/// Per-job execution state: the job's own work-stealing queue (over the
/// *local* index space `0..len`, offset by `base` at execution time)
/// and its private merge target.
struct JobSlot {
    sim: Arc<Simulation>,
    base: u64,
    queue: TrialQueue,
    observe: Observe,
    /// `(batch_start, output)` per executed batch, pushed in racy
    /// completion order and merged in start order at collection time.
    batches: Mutex<Vec<(u64, JobOutput)>>,
    /// Trials of this job not yet merged; hits zero exactly once, when
    /// the job completes (telemetry's per-point progress tick).
    remaining: AtomicU64,
    /// Total trials of the job (for the completion trace span).
    trials: u64,
    point: bool,
}

/// The trial batches of one [`WorkerPool::run`] call.
struct TrialWork {
    jobs: Vec<JobSlot>,
    /// Index of the first job that may still have unclaimed batches;
    /// monotonically advanced as job queues drain. A scan hint, not a
    /// claim: correctness only needs it to never skip an undrained job.
    head: AtomicUsize,
    /// Batches executed (for pool metrics).
    batches: AtomicU64,
    /// Set when request tracing was on at `run` entry: the anchor for
    /// per-point completion spans (reading a clock, never the RNG).
    trace_started: Option<Instant>,
}

/// The indexed jobs of one [`WorkerPool::map`] call: `job(i)` for every
/// `i < n`, each storing its own result.
struct MapWork {
    job: Box<dyn Fn(usize) + Send + Sync>,
    /// The next unclaimed index (claims past `n` find nothing).
    next: AtomicUsize,
    n: usize,
}

/// What one run executes.
enum Work {
    Trials(TrialWork),
    Map(MapWork),
}

/// Completion state of one run, updated under [`RunState::done`].
struct RunDone {
    /// Units (trials or map jobs) not yet completed.
    remaining: u64,
    /// Set when a worker thread panicked mid-run.
    poisoned: bool,
}

/// Shared state of one run. Workers hold an `Arc` to it for the
/// duration of their participation, so a straggler can finish scanning
/// after the caller has already collected the results.
struct RunState {
    work: Work,
    done: Mutex<RunDone>,
    done_cv: Condvar,
}

impl RunState {
    fn new(work: Work, units: u64) -> Arc<Self> {
        Arc::new(RunState {
            work,
            done: Mutex::new(RunDone {
                remaining: units,
                poisoned: false,
            }),
            done_cv: Condvar::new(),
        })
    }

    /// Records `units` completed units, waking the caller on the last.
    fn complete(&self, units: u64) {
        let mut done = lock_ignore_poison(&self.done);
        done.remaining -= units;
        if done.remaining == 0 {
            self.done_cv.notify_all();
        }
    }
}

/// Pool-level coordination state, guarded by [`PoolShared::lock`].
struct PoolState {
    /// Bumped once per run; workers use it to tell a new run from the
    /// one they just finished.
    epoch: u64,
    shutdown: bool,
    run: Option<Arc<RunState>>,
}

struct PoolShared {
    lock: Mutex<PoolState>,
    work_ready: Condvar,
}

/// Locks a std mutex, ignoring poisoning (the pool carries its own
/// panic flag; a poisoned coordination lock must not mask it).
fn lock_ignore_poison<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|e| e.into_inner())
}

thread_local! {
    /// Whether this thread is currently executing pool work.
    static IN_POOL_JOB: Cell<bool> = const { Cell::new(false) };
}

/// Marks the current thread as inside a pool job until dropped
/// (unwinding included).
struct InPoolJob {
    was: bool,
}

impl InPoolJob {
    fn enter() -> Self {
        InPoolJob {
            was: IN_POOL_JOB.with(|flag| flag.replace(true)),
        }
    }
}

impl Drop for InPoolJob {
    fn drop(&mut self) {
        IN_POOL_JOB.with(|flag| flag.set(self.was));
    }
}

/// A long-lived pool of trial workers; see the module docs.
pub(crate) struct WorkerPool {
    shared: Arc<PoolShared>,
    workers: Vec<std::thread::JoinHandle<()>>,
    /// Scratch for the calling thread's participation — owned by the
    /// pool so it, too, is reused across scenarios and across runs.
    caller_scratch: TrialScratch,
}

impl WorkerPool {
    /// Creates a pool with `threads` total workers: `threads - 1`
    /// background threads plus the calling thread, which participates
    /// in every run.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub(crate) fn new(threads: usize) -> Self {
        assert!(threads > 0, "need at least one pool thread");
        let shared = Arc::new(PoolShared {
            lock: Mutex::new(PoolState {
                epoch: 0,
                shutdown: false,
                run: None,
            }),
            work_ready: Condvar::new(),
        });
        let workers = (1..threads)
            .map(|_| {
                let shared = shared.clone();
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        WorkerPool {
            shared,
            workers,
            caller_scratch: TrialScratch::persistent(),
        }
    }

    /// Executes every job and returns `(outputs, batches)`: one merged
    /// [`JobOutput`] per job, in job order, plus the number of trial
    /// batches executed (for queue metrics). Blocks until all trials
    /// are merged; the calling thread works the queues alongside the
    /// background workers.
    ///
    /// # Panics
    ///
    /// Panics if any `RangeJob` has an empty range, or if a worker
    /// thread panicked while executing a trial.
    pub(crate) fn run(&mut self, jobs: Vec<RangeJob>) -> (Vec<JobOutput>, u64) {
        run_trial_jobs(jobs, |work, units| self.execute(work, units))
    }

    /// Runs `f(i)` for every `i` in `0..n` across the pool and returns
    /// the results in index order. Indices are claimed one at a time,
    /// in order; the calling thread works alongside the background
    /// workers.
    ///
    /// # Panics
    ///
    /// Panics if a job panics: on the calling thread the job's own
    /// panic propagates; on a background worker the run is poisoned,
    /// exactly as for a panicking trial.
    pub(crate) fn map<T, F>(&mut self, n: usize, f: F) -> Vec<T>
    where
        T: Send + 'static,
        F: Fn(usize) -> T + Send + Sync + 'static,
    {
        if n == 0 {
            return Vec::new();
        }
        let results: Arc<Vec<Mutex<Option<T>>>> =
            Arc::new((0..n).map(|_| Mutex::new(None)).collect());
        let sink = results.clone();
        self.execute(
            Work::Map(MapWork {
                job: Box::new(move |i| {
                    let value = f(i);
                    *lock_ignore_poison(&sink[i]) = Some(value);
                }),
                next: AtomicUsize::new(0),
                n,
            }),
            n as u64,
        );
        results
            .iter()
            .map(|slot| lock_ignore_poison(slot).take().expect("every index ran"))
            .collect()
    }

    /// Publishes `work` (`units` trials or jobs) to the background
    /// workers, drains it on the calling thread too, and blocks until
    /// every unit has completed.
    fn execute(&mut self, work: Work, units: u64) -> Arc<RunState> {
        let run = RunState::new(work, units);

        if !self.workers.is_empty() {
            let mut state = lock_ignore_poison(&self.shared.lock);
            state.epoch += 1;
            state.run = Some(run.clone());
            drop(state);
            self.shared.work_ready.notify_all();
        }

        // The caller is a full worker: with a 1-thread pool this is the
        // entire run, inline, with zero synchronization beyond the
        // uncontended per-job locks.
        drain(&run, &mut self.caller_scratch);

        // Wait for background stragglers to finish their last units.
        let mut done = lock_ignore_poison(&run.done);
        while done.remaining > 0 && !done.poisoned {
            done = run.done_cv.wait(done).unwrap_or_else(|e| e.into_inner());
        }
        let poisoned = done.poisoned;
        drop(done);
        if !self.workers.is_empty() {
            lock_ignore_poison(&self.shared.lock).run = None;
        }
        assert!(!poisoned, "pool worker panicked");
        run
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        lock_ignore_poison(&self.shared.lock).shutdown = true;
        self.shared.work_ready.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Builds the trial work of `jobs`, runs it through `execute` and
/// returns one merged [`JobOutput`] per job, in job order, plus the
/// number of trial batches executed.
///
/// # Panics
///
/// Panics if any `RangeJob` has an empty range.
fn run_trial_jobs(
    jobs: Vec<RangeJob>,
    execute: impl FnOnce(Work, u64) -> Arc<RunState>,
) -> (Vec<JobOutput>, u64) {
    if jobs.is_empty() {
        return (Vec::new(), 0);
    }
    let mut total = 0u64;
    let slots: Vec<JobSlot> = jobs
        .into_iter()
        .map(|job| {
            assert!(job.end > job.start, "empty trial range");
            let len = job.end - job.start;
            total += len;
            JobSlot {
                queue: TrialQueue::new(len),
                base: job.start,
                sim: job.sim,
                observe: job.observe,
                batches: Mutex::new(Vec::new()),
                remaining: AtomicU64::new(len),
                trials: len,
                point: job.point,
            }
        })
        .collect();
    telemetry::add_expected_trials(total);
    let run = execute(
        Work::Trials(TrialWork {
            jobs: slots,
            head: AtomicUsize::new(0),
            batches: AtomicU64::new(0),
            trace_started: trace::enabled().then(Instant::now),
        }),
        total,
    );
    let Work::Trials(trials) = &run.work else {
        unreachable!("a trial run holds trial work");
    };
    // All trials merged and no queue has unclaimed batches, so no
    // worker will touch an output again — taking them is safe even
    // if a straggler still holds the Arc while scanning.
    let outputs = trials
        .jobs
        .iter()
        .map(|slot| {
            let batches = std::mem::take(&mut *lock_ignore_poison(&slot.batches));
            JobOutput::merged_in_order(batches)
        })
        .collect();
    (outputs, trials.batches.load(Ordering::Relaxed))
}

/// Runs `job` on `threads` workers that exist for this call alone: the
/// caller plus `threads - 1` scoped threads spawned once the work is
/// published, each leaving when the queue is drained, so a run costs
/// no wake-up handoff. Every worker keeps the one-slot
/// [`TrialScratch::new`]: a run of one config never repeats a trial
/// index, so memo slots could not hit. One thread spawns nothing.
///
/// # Panics
///
/// Panics if `threads == 0`, or if a trial panics.
pub(crate) fn run_one_shot(threads: usize, job: RangeJob) -> JobOutput {
    assert!(threads > 0, "need at least one thread");
    let (mut outputs, _) = run_trial_jobs(vec![job], |work, units| {
        let run = RunState::new(work, units);
        std::thread::scope(|scope| {
            for _ in 1..threads {
                scope.spawn(|| drain(&run, &mut TrialScratch::new()));
            }
            drain(&run, &mut TrialScratch::new());
        });
        run
    });
    outputs.pop().expect("one output per job")
}

/// Marks the run poisoned if the worker unwinds mid-drain, so the
/// caller fails loudly instead of waiting forever on `remaining`.
struct PoisonGuard<'a> {
    run: &'a RunState,
    armed: bool,
}

impl Drop for PoisonGuard<'_> {
    fn drop(&mut self) {
        if self.armed {
            lock_ignore_poison(&self.run.done).poisoned = true;
            self.run.done_cv.notify_all();
        }
    }
}

/// Works the run until no unclaimed unit remains. Shared by background
/// workers and the calling thread.
fn drain(run: &RunState, scratch: &mut TrialScratch) {
    let _in_job = InPoolJob::enter();
    match &run.work {
        Work::Trials(trials) => drain_trials(run, trials, scratch),
        Work::Map(map) => loop {
            let i = map.next.fetch_add(1, Ordering::Relaxed);
            if i >= map.n {
                return;
            }
            (map.job)(i);
            run.complete(1);
        },
    }
}

/// Works the run's trial queues until no unclaimed batch remains
/// anywhere.
fn drain_trials(run: &RunState, work: &TrialWork, scratch: &mut TrialScratch) {
    loop {
        let head = work.head.load(Ordering::Acquire);
        let mut claimed = None;
        for (i, slot) in work.jobs.iter().enumerate().skip(head) {
            if let Some((start, end)) = slot.queue.next_batch() {
                claimed = Some((slot, start, end));
                break;
            }
            if i == head {
                // This job's queue is fully claimed; advance the scan
                // hint so later workers skip it. CAS failure just means
                // someone else advanced it first.
                let _ = work
                    .head
                    .compare_exchange(i, i + 1, Ordering::AcqRel, Ordering::Acquire);
            }
        }
        let Some((slot, start, end)) = claimed else {
            return;
        };
        if let Some(t) = telemetry::slot() {
            t.add_batch();
        }
        let mut batch_span = trace::start("pool-batch", trace::CAT_POOL);
        let output = JobOutput::batch(
            &slot.sim,
            slot.base + start,
            slot.base + end,
            slot.observe,
            scratch,
        );
        if let Some(span) = batch_span.as_mut() {
            span.arg("trials", end - start);
        }
        drop(batch_span); // record the batch claim's span now
        lock_ignore_poison(&slot.batches).push((start, output));
        work.batches.fetch_add(1, Ordering::Relaxed);
        // The last batch of a job completes a sweep point.
        let batch_len = end - start;
        if slot.remaining.fetch_sub(batch_len, Ordering::AcqRel) == batch_len && slot.point {
            telemetry::point_done();
            if let Some(t0) = work.trace_started {
                trace::record_since(
                    "sweep-point",
                    trace::CAT_EXEC,
                    t0,
                    &[("trials", slot.trials)],
                );
            }
        }
        run.complete(batch_len);
    }
}

/// Background worker: wait for a new run epoch, participate, repeat.
/// The scratch lives for the thread's lifetime — overlay/ring/route
/// allocations are reused across every scenario the pool ever runs.
fn worker_loop(shared: &PoolShared) {
    let mut scratch = TrialScratch::persistent();
    let mut last_epoch = 0u64;
    loop {
        let run = {
            let mut state = lock_ignore_poison(&shared.lock);
            loop {
                if state.shutdown {
                    return;
                }
                if state.epoch != last_epoch {
                    if let Some(run) = &state.run {
                        last_epoch = state.epoch;
                        break run.clone();
                    }
                }
                state = shared
                    .work_ready
                    .wait(state)
                    .unwrap_or_else(|e| e.into_inner());
            }
        };
        let mut guard = PoisonGuard {
            run: &run,
            armed: true,
        };
        drain(&run, &mut scratch);
        guard.armed = false;
    }
}

/// The process-wide pool used by the sweep executor,
/// [`Simulation::run_until_precision`] and [`pool_map`], sized by
/// [`num_threads`](crate::engine::num_threads). Created on first use;
/// callers serialize on the mutex (runs are internally parallel, so
/// back-to-back runs beat interleaved ones).
///
/// # Panics
///
/// Panics when called from inside a pool job: the mutex is held for
/// the whole run, so waiting on it there would deadlock.
///
/// [`Simulation::run_until_precision`]: crate::engine::Simulation::run_until_precision
pub(crate) fn global_pool() -> &'static Mutex<WorkerPool> {
    assert!(
        !IN_POOL_JOB.with(Cell::get),
        "the global worker pool was used from inside a pool job (a run_sweep, \
         run_until_precision or pool_map call in a pool_map job); nested pool \
         use would deadlock"
    );
    static POOL: OnceLock<Mutex<WorkerPool>> = OnceLock::new();
    POOL.get_or_init(|| Mutex::new(WorkerPool::new(num_threads())))
}

/// Runs `f(i)` for every `i` in `0..n` on the process-wide worker pool
/// and returns the results in index order.
///
/// Each index is one job; the calling thread works alongside the pool's
/// background workers, so with one core this is a plain serial map.
/// Because results come back in index order, folding them in that order
/// reproduces the equivalent serial loop bit for bit at any thread
/// count. Jobs own their inputs (`f` is `'static`): share read-only
/// state through an `Arc` and clone what a job mutates.
///
/// # Panics
///
/// Panics if a job panics (the call fails instead of hanging), or if
/// called from inside a pool job, including from `f` itself.
pub fn pool_map<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send + 'static,
    F: Fn(usize) -> T + Send + Sync + 'static,
{
    lock_ignore_poison(global_pool()).map(n, f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SimulationConfig;
    use sos_core::{AttackBudget, AttackConfig, MappingDegree, Scenario, SystemParams};

    fn sim(seed: u64, trials: u64) -> Arc<Simulation> {
        let scenario = Scenario::builder()
            .system(SystemParams::new(500, 40, 0.5).unwrap())
            .layers(3)
            .mapping(MappingDegree::OneTo(2))
            .filters(10)
            .build()
            .unwrap();
        Arc::new(Simulation::new(
            SimulationConfig::new(
                scenario,
                AttackConfig::OneBurst {
                    budget: AttackBudget::new(20, 100),
                },
            )
            .trials(trials)
            .routes_per_trial(20)
            .seed(seed),
        ))
    }

    /// `run_parallel` runs one job on one-shot workers; a multi-job
    /// persistent pool must reproduce its results byte for byte.
    #[test]
    fn pool_matches_run_parallel_at_any_thread_count() {
        let sims: Vec<Arc<Simulation>> = (0..5).map(|s| sim(s, 12)).collect();
        let json =
            |result: &crate::engine::SimulationResult| serde_json::to_string(result).unwrap();
        let reference: Vec<String> = sims.iter().map(|s| json(&s.run_parallel(2))).collect();
        for threads in [1, 2, 4, 8] {
            let mut pool = WorkerPool::new(threads);
            let jobs = sims.iter().map(|s| range_job(s, 0, 12, true)).collect();
            let (outputs, batches) = pool.run(jobs);
            assert!(batches > 0);
            for ((output, s), reference) in outputs.into_iter().zip(&sims).zip(&reference) {
                assert_eq!(
                    &json(&s.finish(output.partial)),
                    reference,
                    "{threads} threads"
                );
            }
        }
    }

    /// An untraced job over trials `start..end` of `sim`.
    fn range_job(sim: &Arc<Simulation>, start: u64, end: u64, point: bool) -> RangeJob {
        RangeJob {
            sim: sim.clone(),
            start,
            end,
            point,
            observe: Observe::Off,
        }
    }

    #[test]
    fn pool_is_reusable_across_runs() {
        let mut pool = WorkerPool::new(2);
        let s = sim(9, 8);
        let (first, _) = pool.run(vec![range_job(&s, 0, 8, true)]);
        let (second, _) = pool.run(vec![range_job(&s, 0, 8, true)]);
        let a = s.finish(first.into_iter().next().unwrap().partial);
        let b = s.finish(second.into_iter().next().unwrap().partial);
        assert_eq!(a.successes, b.successes);
        assert_eq!(a.attempts, b.attempts);
    }

    #[test]
    fn disjoint_ranges_of_one_simulation_sum_to_the_whole() {
        // run_until_precision's shape: the same simulation split into
        // consecutive ranges must reproduce the full run's counts.
        let s = sim(4, 30);
        let whole = s.run_parallel(1);
        let mut pool = WorkerPool::new(3);
        let (parts, _) = pool.run(vec![
            range_job(&s, 0, 10, false),
            range_job(&s, 10, 30, false),
        ]);
        let mut merged = Partial::default();
        for part in &parts {
            merged.merge(&part.partial);
        }
        let result = s.finish(merged);
        assert_eq!(result.successes, whole.successes);
        assert_eq!(result.attempts, whole.attempts);
        assert_eq!(result.failure_depths, whole.failure_depths);
    }

    #[test]
    fn map_matches_a_serial_map_at_any_thread_count() {
        let job = |i: usize| {
            let result = sim(i as u64, 3).run();
            (
                result.successes,
                result.attempts,
                result.per_trial.mean.to_bits(),
            )
        };
        let serial: Vec<_> = (0..10).map(job).collect();
        for threads in [1, 2, 4, 8] {
            let mut pool = WorkerPool::new(threads);
            assert_eq!(pool.map(10, job), serial, "{threads} threads");
            // The same pool still runs trial batches afterwards.
            let (outputs, _) = pool.run(vec![range_job(&sim(1, 4), 0, 4, false)]);
            assert_eq!(outputs.len(), 1);
        }
    }

    #[test]
    fn map_returns_results_in_index_order() {
        use std::sync::mpsc;
        // Job 0 cannot finish before job 7 has: indices are claimed in
        // order, so job 0 holds one thread and the others run 1..=7.
        let (done_7, wait_7) = mpsc::channel();
        let wait_7 = Mutex::new(wait_7);
        let mut pool = WorkerPool::new(4);
        let out = pool.map(8, move |i| {
            match i {
                0 => wait_7.lock().unwrap().recv().unwrap(),
                7 => done_7.send(()).unwrap(),
                _ => {}
            }
            i * 3
        });
        assert_eq!(out, (0..8).map(|i| i * 3).collect::<Vec<_>>());
        assert!(pool.map(0, |i| i).is_empty());
    }

    #[test]
    fn panicking_map_job_fails_the_call_and_the_pool_stays_usable() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        use std::sync::mpsc;
        // On the calling thread the job's own panic propagates (a
        // 1-thread pool runs every job there).
        let mut inline = WorkerPool::new(1);
        let on_caller = catch_unwind(AssertUnwindSafe(|| {
            inline.map(4, |i| {
                assert!(i != 2, "job {i} failed");
                i
            })
        }));
        let message = on_caller.expect_err("the caller's panic fails the call");
        assert_eq!(message.downcast_ref::<String>().unwrap(), "job 2 failed");
        assert_eq!(inline.map(3, |i| i + 1), vec![1, 2, 3]);

        // On a background worker it poisons the run. A job on the
        // calling thread blocks until a worker's job is about to
        // panic, so the worker claims at least one of the two jobs.
        let mut pool = WorkerPool::new(2);
        let caller = std::thread::current().id();
        let (failing, wait) = mpsc::channel();
        let wait = Mutex::new(wait);
        let on_worker = catch_unwind(AssertUnwindSafe(|| {
            pool.map(2, move |i| {
                if std::thread::current().id() == caller {
                    wait.lock().unwrap().recv().unwrap();
                } else {
                    failing.send(()).unwrap();
                    panic!("job {i} failed on a worker");
                }
                i
            })
        }));
        let message = on_worker.expect_err("a worker's panic fails the call");
        assert_eq!(
            message.downcast_ref::<&str>(),
            Some(&"pool worker panicked")
        );
        assert_eq!(pool.map(6, |i| i + 1), vec![1, 2, 3, 4, 5, 6]);
        let (outputs, _) = pool.run(vec![range_job(&sim(2, 4), 0, 4, false)]);
        assert_eq!(outputs.len(), 1);
    }

    #[test]
    fn nested_global_pool_use_panics_instead_of_deadlocking() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        // A 1-thread pool runs every job on this thread, so the guard's
        // panic surfaces here.
        let mut pool = WorkerPool::new(1);
        let nested = catch_unwind(AssertUnwindSafe(|| {
            pool.map(1, |_| sim(3, 2).run_until_precision(0.1, 4))
        }));
        let message = nested.expect_err("nested pool use must panic");
        let message = message
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| message.downcast_ref::<&str>().copied())
            .unwrap_or_default();
        assert!(message.contains("from inside a pool job"), "{message}");
        // The guard is cleared once the job has unwound.
        assert!(!IN_POOL_JOB.with(Cell::get));
        assert_eq!(pool.map(2, |i| i), vec![0, 1]);
    }

    #[test]
    fn empty_job_list_is_a_no_op() {
        let mut pool = WorkerPool::new(2);
        let (outputs, batches) = pool.run(Vec::new());
        assert!(outputs.is_empty());
        assert_eq!(batches, 0);
    }
}
