//! # Persistent worker pool
//!
//! The executor's threads are spawned **once** — when the pool is built —
//! and reused for every subsequent step, wave, phase, query and sweep
//! point. A step submits its per-node bundles as a *scope*: an ordered
//! batch of jobs whose results come back in submission order, so callers
//! can merge ledgers, trace events and metrics deterministically no
//! matter which worker ran which job, or in what order they finished.
//!
//! ## Scheduling
//!
//! Each scope keeps its jobs as a shared counter (`next`/`done`) plus one
//! erased runner closure; workers pick jobs by claiming the next index.
//! The pool's global queue holds *tickets* — handles to scopes with work
//! left. The submitting thread never blocks idle: after enqueuing
//! tickets it runs its own scope's jobs until the scope is dry, then
//! waits only for jobs other workers are still finishing. Because a
//! nested scope's owner drains its own queue itself, nesting (a sweep
//! point running steps, a step chunking tuple batches) can never
//! deadlock the pool: blocking waits only ever cover jobs already
//! *running* on some thread, and leaf jobs terminate.
//!
//! ## Determinism
//!
//! The pool itself guarantees only *ordered results*; byte-identical
//! artifacts are the contract of the callers ([`run_step`] replays trace
//! and metrics in participant order, [`StepCtx::par_map`] restricts
//! chunked work to pure computation). `pool_size = 1` spawns no threads
//! at all — every caller detects `workers() == 0` and takes its plain
//! serial path, so the degenerate pool *is* the serial executor.
//!
//! [`run_step`]: super::run_step
//! [`StepCtx::par_map`]: super::StepCtx::par_map

use std::any::Any;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

/// Host-side pool profiling, compiled in under the `hostprof` feature.
///
/// Process-global wall-clock counters over every [`WorkerPool`] in the
/// process: per-worker busy/idle time, per-stage job-latency histograms,
/// and ticket-queue contention counters. These are *host* measurements —
/// they never touch the simulated timeline, and the default build carries
/// zero instrumentation (every hook site is `#[cfg]`-gated out). Because
/// counters are process-global wall time, concurrent batches attribute
/// their overlap to whichever stage is being observed; treat per-stage
/// numbers as inclusive when batches nest (`map_chunks` inside a sweep
/// point).
#[cfg(feature = "hostprof")]
pub mod hostprof {
    use std::collections::BTreeMap;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Mutex;
    use std::time::Duration;

    /// Power-of-two latency buckets: bucket `b` counts jobs whose wall
    /// latency in nanoseconds was in `[2^b, 2^(b+1))` (bucket 0 also
    /// holds zero).
    pub const HIST_BUCKETS: usize = 32;

    /// Per-stage job-latency histogram (log₂ nanosecond buckets).
    #[derive(Clone, Debug, Default, PartialEq, Eq)]
    pub struct StageHist {
        pub buckets: [u64; HIST_BUCKETS],
        pub count: u64,
        pub sum_ns: u64,
    }

    impl StageHist {
        /// Mean job latency in microseconds (0 when empty).
        pub fn mean_us(&self) -> f64 {
            if self.count == 0 {
                return 0.0;
            }
            self.sum_ns as f64 / self.count as f64 / 1_000.0
        }

        /// Upper bound (ns) of the highest non-empty bucket.
        pub fn max_bucket_ns(&self) -> u64 {
            match self.buckets.iter().rposition(|&c| c > 0) {
                Some(b) => 1u64 << (b as u32 + 1),
                None => 0,
            }
        }
    }

    /// One worker thread's lifetime clocks.
    #[derive(Clone, Debug, Default, PartialEq, Eq)]
    pub struct WorkerSample {
        /// Wall time spent serving tickets (running jobs).
        pub busy_ns: u64,
        /// Wall time spent waiting for tickets.
        pub idle_ns: u64,
        /// Tickets this worker popped.
        pub tickets: u64,
    }

    /// A point-in-time copy of every hostprof counter.
    #[derive(Clone, Debug, Default)]
    pub struct HostProfile {
        /// Jobs executed (on workers and helping owners alike).
        pub jobs: u64,
        /// Σ wall latency of all jobs, ns.
        pub job_ns: u64,
        /// Wall time submitting threads spent helping run their batches.
        pub owner_busy_ns: u64,
        /// Tickets pushed to the pool queue.
        pub tickets_enqueued: u64,
        /// Tickets popped whose scope had no unclaimed job left.
        pub stale_tickets: u64,
        /// Times a worker went to sleep on the work condvar.
        pub cv_sleeps: u64,
        /// Per-worker clocks, in spawn order (process-wide).
        pub workers: Vec<WorkerSample>,
        /// Per-stage latency histograms, sorted by stage label.
        pub stages: Vec<(String, StageHist)>,
    }

    static JOBS: AtomicU64 = AtomicU64::new(0);
    static JOB_NS: AtomicU64 = AtomicU64::new(0);
    static OWNER_BUSY_NS: AtomicU64 = AtomicU64::new(0);
    static TICKETS_ENQUEUED: AtomicU64 = AtomicU64::new(0);
    static STALE_TICKETS: AtomicU64 = AtomicU64::new(0);
    static CV_SLEEPS: AtomicU64 = AtomicU64::new(0);
    static WORKERS: Mutex<Vec<WorkerSample>> = Mutex::new(Vec::new());
    static STAGES: Mutex<BTreeMap<String, StageHist>> = Mutex::new(BTreeMap::new());

    fn saturating_ns(d: Duration) -> u64 {
        u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
    }

    pub(super) fn register_worker() -> usize {
        let mut w = WORKERS.lock().unwrap();
        w.push(WorkerSample::default());
        w.len() - 1
    }

    pub(super) fn on_worker_idle(wid: usize, idle: Duration) {
        WORKERS.lock().unwrap()[wid].idle_ns += saturating_ns(idle);
    }

    pub(super) fn on_worker_ticket(wid: usize, busy: Duration, ran_any: bool) {
        let mut w = WORKERS.lock().unwrap();
        w[wid].busy_ns += saturating_ns(busy);
        w[wid].tickets += 1;
        drop(w);
        if !ran_any {
            STALE_TICKETS.fetch_add(1, Ordering::Relaxed);
        }
    }

    pub(super) fn on_cv_sleep() {
        CV_SLEEPS.fetch_add(1, Ordering::Relaxed);
    }

    pub(super) fn on_tickets_enqueued(n: u64) {
        TICKETS_ENQUEUED.fetch_add(n, Ordering::Relaxed);
    }

    pub(super) fn on_owner_busy(busy: Duration) {
        OWNER_BUSY_NS.fetch_add(saturating_ns(busy), Ordering::Relaxed);
    }

    pub(super) fn observe_job(stage: &str, latency: Duration) {
        let ns = saturating_ns(latency);
        JOBS.fetch_add(1, Ordering::Relaxed);
        JOB_NS.fetch_add(ns, Ordering::Relaxed);
        let bucket = if ns == 0 {
            0
        } else {
            (63 - ns.leading_zeros() as usize).min(HIST_BUCKETS - 1)
        };
        let mut stages = STAGES.lock().unwrap();
        let hist = match stages.get_mut(stage) {
            Some(h) => h,
            None => stages.entry(stage.to_string()).or_default(),
        };
        hist.buckets[bucket] += 1;
        hist.count += 1;
        hist.sum_ns += ns;
    }

    /// Cheap totals for per-measurement deltas: `(jobs, Σ job ns)`.
    pub fn totals() -> (u64, u64) {
        (JOBS.load(Ordering::Relaxed), JOB_NS.load(Ordering::Relaxed))
    }

    /// Copy every counter.
    pub fn snapshot() -> HostProfile {
        HostProfile {
            jobs: JOBS.load(Ordering::Relaxed),
            job_ns: JOB_NS.load(Ordering::Relaxed),
            owner_busy_ns: OWNER_BUSY_NS.load(Ordering::Relaxed),
            tickets_enqueued: TICKETS_ENQUEUED.load(Ordering::Relaxed),
            stale_tickets: STALE_TICKETS.load(Ordering::Relaxed),
            cv_sleeps: CV_SLEEPS.load(Ordering::Relaxed),
            workers: WORKERS.lock().unwrap().clone(),
            stages: STAGES
                .lock()
                .unwrap()
                .iter()
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect(),
        }
    }

    /// Zero every counter (worker slots are kept, their clocks cleared).
    pub fn reset() {
        JOBS.store(0, Ordering::Relaxed);
        JOB_NS.store(0, Ordering::Relaxed);
        OWNER_BUSY_NS.store(0, Ordering::Relaxed);
        TICKETS_ENQUEUED.store(0, Ordering::Relaxed);
        STALE_TICKETS.store(0, Ordering::Relaxed);
        CV_SLEEPS.store(0, Ordering::Relaxed);
        for w in WORKERS.lock().unwrap().iter_mut() {
            *w = WorkerSample::default();
        }
        STAGES.lock().unwrap().clear();
    }

    /// Human-readable report of the current counters.
    pub fn report() -> String {
        let p = snapshot();
        let mut out = String::new();
        out.push_str(&format!(
            "hostprof: {} jobs ({:.3} ms total), owner busy {:.3} ms, tickets {} (stale {}), cv sleeps {}\n",
            p.jobs,
            p.job_ns as f64 / 1e6,
            p.owner_busy_ns as f64 / 1e6,
            p.tickets_enqueued,
            p.stale_tickets,
            p.cv_sleeps,
        ));
        for (i, w) in p.workers.iter().enumerate() {
            out.push_str(&format!(
                "  worker {i}: busy {:.3} ms, idle {:.3} ms, {} tickets\n",
                w.busy_ns as f64 / 1e6,
                w.idle_ns as f64 / 1e6,
                w.tickets
            ));
        }
        for (stage, h) in &p.stages {
            out.push_str(&format!(
                "  stage {stage:?}: {} jobs, mean {:.1} us, max bucket < {} ns\n",
                h.count,
                h.mean_us(),
                h.max_bucket_ns()
            ));
        }
        out
    }
}

/// Lifetime-erased job runner: invoked with the index of the job to run.
/// See the `SAFETY` discussion in [`WorkerPool::try_run_ordered`].
type Runner = Box<dyn Fn(usize) + Send + Sync + 'static>;

/// One ordered batch of jobs sharing a runner.
struct ScopeCore {
    state: Mutex<ScopeState>,
    done_cv: Condvar,
    runner: Runner,
}

struct ScopeState {
    /// Next unclaimed job index.
    next: usize,
    /// Jobs that finished running (claimed and returned).
    done: usize,
    total: usize,
}

impl ScopeCore {
    /// Claim and run one job of this scope. Returns `false` when no
    /// unclaimed job is left (the scope may still have jobs *running* on
    /// other threads).
    fn run_one(&self) -> bool {
        let i = {
            let mut s = self.state.lock().unwrap();
            if s.next >= s.total {
                return false;
            }
            let i = s.next;
            s.next += 1;
            i
        };
        (self.runner)(i);
        let mut s = self.state.lock().unwrap();
        s.done += 1;
        if s.done == s.total {
            self.done_cv.notify_all();
        }
        true
    }

    /// Block until every job has finished running.
    fn wait_done(&self) {
        let mut s = self.state.lock().unwrap();
        while s.done < s.total {
            s = self.done_cv.wait(s).unwrap();
        }
    }
}

struct PoolQueue {
    tickets: VecDeque<Arc<ScopeCore>>,
    shutdown: bool,
}

struct PoolShared {
    queue: Mutex<PoolQueue>,
    work_cv: Condvar,
}

/// A panicked job: its submission index and the original panic payload.
pub struct JobPanic {
    /// Submission-order index of the job that panicked.
    pub index: usize,
    /// The payload `panic!` was invoked with.
    pub payload: Box<dyn Any + Send>,
}

/// Total worker threads ever spawned by pools in this process — the pool
/// reuse tests pin this down: once a run has started, it must not move.
static THREADS_SPAWNED: AtomicU64 = AtomicU64::new(0);

/// Total worker threads ever spawned by any [`WorkerPool`] in this
/// process (monotone; never decremented on shutdown).
pub fn threads_spawned() -> u64 {
    THREADS_SPAWNED.load(Ordering::SeqCst)
}

/// A persistent pool of worker threads executing ordered job batches.
///
/// A pool of size `n` runs up to `n` jobs concurrently: `n - 1` dedicated
/// worker threads plus the submitting thread, which always helps run its
/// own batch. Size 1 therefore spawns no threads and executes everything
/// inline, in submission order — exactly the serial executor.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    workers: Vec<JoinHandle<()>>,
    size: usize,
}

impl WorkerPool {
    /// Build a pool of `size` concurrent lanes (clamped to at least 1).
    pub fn new(size: usize) -> Self {
        let size = size.max(1);
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(PoolQueue {
                tickets: VecDeque::new(),
                shutdown: false,
            }),
            work_cv: Condvar::new(),
        });
        let workers = (0..size - 1)
            .map(|w| {
                let shared = Arc::clone(&shared);
                THREADS_SPAWNED.fetch_add(1, Ordering::SeqCst);
                std::thread::Builder::new()
                    .name(format!("gamma-pool-{w}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool {
            shared,
            workers,
            size,
        }
    }

    /// Concurrent lanes (worker threads + the submitting thread).
    pub fn size(&self) -> usize {
        self.size
    }

    /// Dedicated worker threads. `0` means the pool is degenerate and
    /// callers should use their serial path.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Run `f(i, items[i])` for every item, concurrently, returning the
    /// results **in submission order**. If any job panicked, returns every
    /// captured panic (also in submission order) instead.
    ///
    /// The submitting thread participates: it runs unclaimed jobs of this
    /// batch until none remain, then waits for in-flight ones. Jobs may
    /// themselves submit nested batches to the same pool.
    pub fn try_run_ordered<T, R, F>(&self, items: Vec<T>, f: F) -> Result<Vec<R>, Vec<JobPanic>>
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> R + Sync,
    {
        self.try_run_labeled("batch", items, f)
    }

    /// [`try_run_ordered`](Self::try_run_ordered) with a stage label for
    /// the `hostprof` per-stage latency histograms (ignored otherwise).
    fn try_run_labeled<T, R, F>(
        &self,
        label: &str,
        items: Vec<T>,
        f: F,
    ) -> Result<Vec<R>, Vec<JobPanic>>
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> R + Sync,
    {
        #[cfg(not(feature = "hostprof"))]
        let _ = label;
        let n = items.len();
        if n == 0 {
            return Ok(Vec::new());
        }
        let cells: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
        let slots: Vec<Mutex<Option<std::thread::Result<R>>>> =
            (0..n).map(|_| Mutex::new(None)).collect();
        {
            let run = |i: usize| {
                let item = cells[i].lock().unwrap().take().expect("job claimed once");
                #[cfg(feature = "hostprof")]
                let job_start = std::time::Instant::now();
                let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(i, item)));
                #[cfg(feature = "hostprof")]
                hostprof::observe_job(label, job_start.elapsed());
                *slots[i].lock().unwrap() = Some(out);
            };
            let boxed: Box<dyn Fn(usize) + Send + Sync + '_> = Box::new(run);
            // SAFETY: the runner captures only references into this stack
            // frame (`cells`, `slots`, `f`). We erase its lifetime so
            // tickets can sit in the pool's 'static queue, and uphold the
            // borrow manually: `wait_done` below blocks until every job
            // has *finished running*, so no thread touches the runner's
            // captures after this block. Stale tickets popped later see
            // `next >= total` and return without calling the runner;
            // dropping the erased box late is sound because reference
            // captures have no drop glue.
            let runner: Runner = unsafe {
                std::mem::transmute::<Box<dyn Fn(usize) + Send + Sync + '_>, Runner>(boxed)
            };
            let core = Arc::new(ScopeCore {
                state: Mutex::new(ScopeState {
                    next: 0,
                    done: 0,
                    total: n,
                }),
                done_cv: Condvar::new(),
                runner,
            });
            if !self.workers.is_empty() {
                let tickets = self.workers.len().min(n);
                let mut q = self.shared.queue.lock().unwrap();
                for _ in 0..tickets {
                    q.tickets.push_back(Arc::clone(&core));
                }
                drop(q);
                self.shared.work_cv.notify_all();
                #[cfg(feature = "hostprof")]
                hostprof::on_tickets_enqueued(tickets as u64);
            }
            #[cfg(feature = "hostprof")]
            let owner_start = std::time::Instant::now();
            while core.run_one() {}
            #[cfg(feature = "hostprof")]
            hostprof::on_owner_busy(owner_start.elapsed());
            core.wait_done();
        }
        let mut oks = Vec::with_capacity(n);
        let mut panics = Vec::new();
        for (index, slot) in slots.into_iter().enumerate() {
            match slot.into_inner().unwrap().expect("every job ran") {
                Ok(r) => oks.push(r),
                Err(payload) => panics.push(JobPanic { index, payload }),
            }
        }
        if panics.is_empty() {
            Ok(oks)
        } else {
            Err(panics)
        }
    }

    /// [`try_run_ordered`](Self::try_run_ordered), re-raising the first
    /// (submission-order) panic as `` `{what}` job #i panicked: ... ``.
    pub fn run_ordered<T, R, F>(&self, what: &str, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> R + Sync,
    {
        match self.try_run_labeled(what, items, f) {
            Ok(out) => out,
            Err(panics) => {
                let first = &panics[0];
                panic!(
                    "`{what}` job #{} panicked: {}",
                    first.index,
                    panic_message(first.payload.as_ref())
                );
            }
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut q = self.shared.queue.lock().unwrap();
            q.shutdown = true;
        }
        self.shared.work_cv.notify_all();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(shared: &PoolShared) {
    #[cfg(feature = "hostprof")]
    let wid = hostprof::register_worker();
    loop {
        #[cfg(feature = "hostprof")]
        let idle_start = std::time::Instant::now();
        let ticket = {
            let mut q = shared.queue.lock().unwrap();
            loop {
                if let Some(t) = q.tickets.pop_front() {
                    break Some(t);
                }
                if q.shutdown {
                    break None;
                }
                #[cfg(feature = "hostprof")]
                hostprof::on_cv_sleep();
                q = shared.work_cv.wait(q).unwrap();
            }
        };
        #[cfg(feature = "hostprof")]
        hostprof::on_worker_idle(wid, idle_start.elapsed());
        match ticket {
            // Serve the claimed scope until it has no unclaimed jobs left,
            // then go back to the queue.
            Some(t) => {
                #[cfg(feature = "hostprof")]
                let busy_start = std::time::Instant::now();
                #[cfg(feature = "hostprof")]
                let mut ran_any = false;
                while t.run_one() {
                    #[cfg(feature = "hostprof")]
                    {
                        ran_any = true;
                    }
                }
                #[cfg(feature = "hostprof")]
                hostprof::on_worker_ticket(wid, busy_start.elapsed(), ran_any);
            }
            None => return,
        }
    }
}

/// Chunked **pure** map over a slice, in input order: inline when `pool`
/// is absent, degenerate, or the batch is too small to split; otherwise
/// fixed tuple-range chunks dispatched as one ordered batch. Because `f`
/// is pure and results are reassembled in input order, the output — and
/// therefore every artifact derived from it — is identical for every
/// pool size, including none.
pub fn map_chunks<T, R>(
    pool: Option<&WorkerPool>,
    items: &[T],
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R>
where
    T: Sync,
    R: Send,
{
    // Fixed granularity: affects scheduling only, never results.
    const CHUNK_TUPLES: usize = 512;
    match pool {
        Some(pool) if pool.workers() > 0 && items.len() > CHUNK_TUPLES => {
            let chunks: Vec<&[T]> = items.chunks(CHUNK_TUPLES).collect();
            let out =
                pool.run_ordered("chunk", chunks, |_, c| c.iter().map(&f).collect::<Vec<R>>());
            out.into_iter().flatten().collect()
        }
        _ => items.iter().map(f).collect(),
    }
}

/// Best-effort text of a panic payload (`&str` and `String` payloads; the
/// overwhelmingly common cases from `panic!`/`assert!`).
pub fn panic_message(payload: &(dyn Any + Send)) -> &str {
    payload
        .downcast_ref::<&'static str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("non-string panic payload")
}

/// The process-wide shared pool sized by `GAMMA_POOL` (a positive
/// integer), or `None` when that variable is unset — the serial default.
/// Built on first use; every machine, sweep and bench binary shares it,
/// so its workers are spawned once per process and reused across waves,
/// phases, queries and sweep points.
pub fn env_pool() -> Option<&'static Arc<WorkerPool>> {
    static POOL: OnceLock<Option<Arc<WorkerPool>>> = OnceLock::new();
    POOL.get_or_init(|| {
        let v = std::env::var("GAMMA_POOL").ok()?;
        match v.trim().parse::<usize>() {
            Ok(n) if n >= 1 => Some(Arc::new(WorkerPool::new(n))),
            _ => panic!("GAMMA_POOL must be a positive integer, got {v:?}"),
        }
    })
    .as_ref()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordered_results_for_any_pool_size() {
        for size in [1, 2, 3, 8] {
            let pool = WorkerPool::new(size);
            let items: Vec<u64> = (0..97).collect();
            let out = pool.run_ordered("square", items, |i, x| {
                assert_eq!(i as u64, x);
                x * x
            });
            assert_eq!(out, (0..97u64).map(|x| x * x).collect::<Vec<_>>());
        }
    }

    #[test]
    fn nested_batches_do_not_deadlock() {
        let pool = WorkerPool::new(3);
        let outer = pool.run_ordered("outer", (0..8u64).collect(), |_, x| {
            let inner = pool.run_ordered("inner", (0..16u64).collect(), |_, y| x * 100 + y);
            inner.iter().sum::<u64>()
        });
        for (x, got) in outer.into_iter().enumerate() {
            let want: u64 = (0..16u64).map(|y| x as u64 * 100 + y).sum();
            assert_eq!(got, want);
        }
    }

    #[test]
    fn panics_surface_in_submission_order() {
        let pool = WorkerPool::new(2);
        let err = pool
            .try_run_ordered((0..10u32).collect(), |_, x| {
                if x % 4 == 1 {
                    panic!("job {x} exploded");
                }
                x
            })
            .expect_err("some jobs panicked");
        assert_eq!(err.iter().map(|p| p.index).collect::<Vec<_>>(), [1, 5, 9]);
        assert_eq!(panic_message(err[0].payload.as_ref()), "job 1 exploded");
    }

    #[test]
    fn degenerate_pool_spawns_no_threads() {
        let before = threads_spawned();
        let pool = WorkerPool::new(1);
        assert_eq!(pool.workers(), 0);
        let out = pool.run_ordered("inline", vec![1, 2, 3], |_, x| x * 2);
        assert_eq!(out, vec![2, 4, 6]);
        assert_eq!(threads_spawned(), before);
    }

    #[cfg(feature = "hostprof")]
    #[test]
    fn hostprof_counts_jobs_and_stages() {
        let before = hostprof::totals();
        let pool = WorkerPool::new(2);
        let out = pool.run_ordered("hostprof-test-stage", (0..40u64).collect(), |_, x| x + 1);
        assert_eq!(out.len(), 40);
        let after = hostprof::totals();
        assert!(
            after.0 >= before.0 + 40,
            "40 jobs must be counted: {before:?} -> {after:?}"
        );
        let snap = hostprof::snapshot();
        let stage = snap
            .stages
            .iter()
            .find(|(s, _)| s == "hostprof-test-stage")
            .expect("stage histogram recorded");
        assert!(stage.1.count >= 40);
        assert_eq!(stage.1.buckets.iter().sum::<u64>(), stage.1.count);
        assert!(!hostprof::report().is_empty());
    }

    #[test]
    fn workers_are_reused_across_batches() {
        let pool = WorkerPool::new(4);
        let after_build = threads_spawned();
        for round in 0..10u64 {
            let out = pool.run_ordered("round", (0..32u64).collect(), |_, x| x + round);
            assert_eq!(out[0], round);
        }
        assert_eq!(threads_spawned(), after_build, "no spawn after pool build");
    }
}
