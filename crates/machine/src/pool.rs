//! The persistent host execution layer.
//!
//! Every multiprocessor engine advances in bulk-synchronous stages; the
//! per-processor work items of one stage are independent by
//! construction.  Spawning OS threads per stage (the old
//! `std::thread::scope` path) pays thread start-up Θ(T·p) times per
//! run.  [`StagePool`] instead spins up its workers **once**, parks them
//! on a condvar between stages, and hands each stage out as a single
//! type-erased job whose tasks the workers (and the calling thread)
//! claim with an atomic index.
//!
//! Model time is unaffected by any of this: each task returns its own
//! model cost into a dedicated slot (`out[i]`), and the caller folds the
//! slots in processor order — so serial, scoped-thread, and pooled
//! execution produce bit-identical stage costs (see DESIGN.md §12).
//!
//! A panic inside a task is caught, the remaining tasks still drain, and
//! [`StagePool::run_stage`] returns the first panic's message as
//! [`StagePanic`] — no hang, no abort.
//!
//! **Re-entrancy (serving mode).**  One pool instance is safe for
//! *concurrent* callers: the publish → participate → retire protocol of
//! one stage runs under a submit lock, so two jobs sharing the pool
//! interleave at stage granularity (each stage's tasks still fan out
//! across the workers).  A long-running server initializes one
//! process-wide pool via [`init_shared_pool`]; engines lease it through
//! [`PoolLease`] — falling back to a private per-run pool when no shared
//! pool exists, which keeps one-shot CLI runs exactly as before.

use std::marker::PhantomData;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

/// How many OS threads the host may use for stage execution.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExecPolicy {
    /// Upper bound on host threads; `0` means "ask the OS"
    /// (`std::thread::available_parallelism`).
    pub threads: usize,
}

impl Default for ExecPolicy {
    fn default() -> Self {
        ExecPolicy::auto()
    }
}

impl ExecPolicy {
    /// Use the machine's available parallelism.
    pub fn auto() -> Self {
        ExecPolicy { threads: 0 }
    }

    /// Strictly serial host execution (no worker threads at all).
    pub fn serial() -> Self {
        ExecPolicy { threads: 1 }
    }

    /// At most `n` host threads (`0` = auto).
    pub fn threads(n: usize) -> Self {
        ExecPolicy { threads: n }
    }

    /// The concrete thread budget: `threads`, or the process default
    /// (see [`set_default_threads`]) / OS parallelism for `0`, never
    /// less than 1.
    pub fn resolved(&self) -> usize {
        if self.threads == 0 {
            let d = DEFAULT_THREADS.load(Ordering::Relaxed);
            if d > 0 {
                d
            } else {
                available_threads()
            }
        } else {
            self.threads
        }
    }
}

/// Process-wide default consulted by [`ExecPolicy::auto`]; `0` means
/// "ask the OS".
static DEFAULT_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Override the thread budget that [`ExecPolicy::auto`] resolves to
/// (`0` restores OS auto-detection).  This is how a CLI `--threads N`
/// flag reaches every engine without plumbing a policy through each
/// call site.
pub fn set_default_threads(n: usize) {
    DEFAULT_THREADS.store(n, Ordering::Relaxed);
}

/// The machine's available parallelism (1 if the OS cannot tell).
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// A task panicked inside a [`StagePool`] stage; carries the panic
/// payload's message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StagePanic(pub String);

impl std::fmt::Display for StagePanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "stage worker panicked: {}", self.0)
    }
}

impl std::error::Error for StagePanic {}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// A `&mut [T]` that many threads may write through **at provably
/// disjoint indices** (each index touched by at most one thread per
/// stage).  The engines' ownership maps (`proc_of`, block chunking)
/// guarantee disjointness; the wrapper only erases the borrow so the
/// closure handed to [`StagePool::run_stage`] can be `Sync`.
pub struct DisjointSlice<'a, T> {
    ptr: *mut T,
    len: usize,
    _marker: PhantomData<&'a mut [T]>,
}

// Safety: hands out &mut T only through the unsafe accessors below,
// whose contract is per-index exclusivity.
unsafe impl<T: Send> Sync for DisjointSlice<'_, T> {}
unsafe impl<T: Send> Send for DisjointSlice<'_, T> {}

impl<'a, T> DisjointSlice<'a, T> {
    pub fn new(slice: &'a mut [T]) -> Self {
        DisjointSlice {
            ptr: slice.as_mut_ptr(),
            len: slice.len(),
            _marker: PhantomData,
        }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// # Safety
    /// No other thread may access index `i` while the returned borrow
    /// lives.
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn get_mut(&self, i: usize) -> &mut T {
        assert!(i < self.len, "DisjointSlice index {i} out of {}", self.len);
        unsafe { &mut *self.ptr.add(i) }
    }
}

/// Type-erased pointer to the current stage's runner closure.  The
/// pointed-to closure lives on the stack of [`StagePool::run_stage`],
/// which never returns while a worker still holds the pointer (the
/// `active` count below), so the erased lifetime is sound.
#[derive(Clone, Copy)]
struct JobPtr(*const (dyn Fn() + Sync));

// Safety: the pointee is Sync; the pointer only crosses threads inside
// the pool's epoch protocol.
unsafe impl Send for JobPtr {}

struct PoolState {
    /// Bumped once per published stage; workers compare against the
    /// last epoch they served.
    epoch: u64,
    /// The current stage's runner, if one is published.
    job: Option<JobPtr>,
    /// Workers currently executing the published runner.
    active: usize,
    /// Workers that joined the published runner (never decremented
    /// within an epoch — it caps participation, `active` tracks
    /// completion).
    joined: usize,
    /// Maximum workers allowed to join the published runner (the
    /// caller's thread budget minus the caller itself).
    cap: usize,
    shutdown: bool,
}

struct Shared {
    state: Mutex<PoolState>,
    /// Signals workers: new stage published, or shutdown.
    work: Condvar,
    /// Signals the caller: a worker finished its participation.
    done: Condvar,
    /// Serializes whole stages across concurrent callers: the pool has
    /// one published-job slot, so a second job waits here until the
    /// first stage retires.  Workers never take this lock.
    submit: Mutex<()>,
}

/// A pool of long-lived stage workers (plus the calling thread, which
/// always participates).  `StagePool::new(t)` spawns `t - 1` workers;
/// with `t <= 1` the pool degenerates to strictly serial execution and
/// spawns nothing.
pub struct StagePool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl StagePool {
    /// Build a pool with a total thread budget of `threads` (calling
    /// thread included).
    pub fn new(threads: usize) -> Self {
        let shared = Arc::new(Shared {
            state: Mutex::new(PoolState {
                epoch: 0,
                job: None,
                active: 0,
                joined: 0,
                cap: 0,
                shutdown: false,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
            submit: Mutex::new(()),
        });
        let workers = (0..threads.saturating_sub(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("bsmp-stage-{i}"))
                    .spawn(move || worker_loop(shared))
                    .expect("spawn stage worker")
            })
            .collect();
        StagePool { shared, workers }
    }

    /// Build a pool sized for `p` independent work items under `policy`
    /// (never more threads than items).
    pub fn for_procs(p: usize, policy: ExecPolicy) -> Self {
        StagePool::new(policy.resolved().min(p.max(1)))
    }

    /// Total thread budget (workers + the calling thread).
    pub fn threads(&self) -> usize {
        self.workers.len() + 1
    }

    /// Execute tasks `0..n` of one stage, writing `task(i)`'s model cost
    /// to `out[i]`.  The task closure is shared across threads; per-task
    /// mutable state must go through [`DisjointSlice`] (or equivalent).
    ///
    /// Deterministic by construction: slot `i` is written only by the
    /// thread that claimed index `i`, regardless of claim order.
    pub fn run_stage(
        &self,
        n: usize,
        out: &mut [f64],
        task: impl Fn(usize) -> f64 + Sync,
    ) -> Result<(), StagePanic> {
        self.run_stage_capped(n, usize::MAX, out, task)
    }

    /// [`run_stage`](Self::run_stage) with a per-call thread budget:
    /// at most `threads - 1` workers join the caller on this stage
    /// (`threads <= 1` runs strictly serially on the calling thread).
    /// This is how concurrent jobs with different [`ExecPolicy`] budgets
    /// share one pool; results are bit-identical for any budget.
    pub fn run_stage_capped(
        &self,
        n: usize,
        threads: usize,
        out: &mut [f64],
        task: impl Fn(usize) -> f64 + Sync,
    ) -> Result<(), StagePanic> {
        assert!(out.len() >= n, "out buffer shorter than task count");
        let first_panic: Mutex<Option<String>> = Mutex::new(None);
        if self.workers.is_empty() || n <= 1 || threads <= 1 {
            // Serial path — same per-index claiming semantics, one thread.
            for (i, slot) in out.iter_mut().enumerate().take(n) {
                match catch_unwind(AssertUnwindSafe(|| task(i))) {
                    Ok(cost) => *slot = cost,
                    Err(e) => {
                        let mut fp = first_panic.lock().unwrap();
                        if fp.is_none() {
                            *fp = Some(panic_message(e));
                        }
                    }
                }
            }
        } else {
            let next = AtomicUsize::new(0);
            let out_slots = DisjointSlice::new(&mut out[..n]);
            let runner = || {
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    match catch_unwind(AssertUnwindSafe(|| task(i))) {
                        // Safety: index i was claimed by exactly this
                        // thread via fetch_add.
                        Ok(cost) => unsafe { *out_slots.get_mut(i) = cost },
                        Err(e) => {
                            let mut fp = first_panic.lock().unwrap();
                            if fp.is_none() {
                                *fp = Some(panic_message(e));
                            }
                        }
                    }
                }
            };
            let runner_ref: &(dyn Fn() + Sync) = &runner;
            // Safety: the pointer is only dereferenced by workers while
            // registered in `active`; we clear the job and wait for
            // `active == 0` under the same mutex before returning, so
            // the pointee outlives every dereference.
            let job = JobPtr(unsafe {
                std::mem::transmute::<*const (dyn Fn() + Sync), *const (dyn Fn() + Sync + 'static)>(
                    runner_ref as *const _,
                )
            });
            // One stage at a time pool-wide: concurrent jobs queue here
            // and interleave at stage granularity.  Held until the stage
            // retires so a second caller can never clobber the published
            // job slot.
            let _submit = self.shared.submit.lock().unwrap();
            {
                let mut st = self.shared.state.lock().unwrap();
                st.job = Some(job);
                st.joined = 0;
                st.cap = (threads - 1).min(self.workers.len());
                st.epoch += 1;
                self.shared.work.notify_all();
            }
            // The calling thread participates too.
            runner();
            let mut st = self.shared.state.lock().unwrap();
            while st.active > 0 {
                st = self.shared.done.wait(st).unwrap();
            }
            // Unpublish before returning: a worker that missed this
            // epoch will find `job == None` and go back to sleep instead
            // of dereferencing a dead stack frame.
            st.job = None;
        }
        match first_panic.into_inner().unwrap() {
            Some(msg) => Err(StagePanic(msg)),
            None => Ok(()),
        }
    }
}

impl Drop for StagePool {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock().unwrap();
            st.shutdown = true;
            self.shared.work.notify_all();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

fn worker_loop(shared: Arc<Shared>) {
    let mut served = 0u64;
    loop {
        let job = {
            let mut st = shared.state.lock().unwrap();
            loop {
                if st.shutdown {
                    return;
                }
                if st.epoch != served {
                    served = st.epoch;
                    if let Some(job) = st.job {
                        if st.joined < st.cap {
                            st.joined += 1;
                            st.active += 1;
                            break job;
                        }
                        // Over the caller's thread budget; sit this
                        // stage out.
                    }
                    // Stage already retired; keep waiting.
                }
                st = shared.work.wait(st).unwrap();
            }
        };
        // The runner catches task panics itself; catch here too so a
        // panic in the claiming loop can never strand `active`.
        let _ = catch_unwind(AssertUnwindSafe(|| unsafe { (*job.0)() }));
        let mut st = shared.state.lock().unwrap();
        st.active -= 1;
        if st.active == 0 {
            shared.done.notify_all();
        }
    }
}

/// The process-wide shared pool, once a server has initialized it.
static SHARED_POOL: OnceLock<StagePool> = OnceLock::new();

/// Stand up the process-wide shared [`StagePool`] with `threads` total
/// threads (calling threads included).  Idempotent: the first call wins
/// and later calls are ignored (returns `false`).  Once initialized,
/// every engine's [`PoolLease`] routes stages through this pool instead
/// of standing up a private one per run — the serving configuration.
pub fn init_shared_pool(threads: usize) -> bool {
    let mut fresh = false;
    SHARED_POOL.get_or_init(|| {
        fresh = true;
        StagePool::new(threads.max(1))
    });
    fresh
}

/// The shared pool, if a server initialized one.
pub fn shared_pool() -> Option<&'static StagePool> {
    SHARED_POOL.get()
}

/// An engine's handle on stage execution for one run: either the
/// process-wide shared pool (capped at this run's thread budget) or a
/// private per-run pool when no shared pool exists.  Model costs are
/// identical either way.
pub enum PoolLease {
    Shared {
        pool: &'static StagePool,
        cap: usize,
    },
    Owned(StagePool),
}

impl PoolLease {
    /// Lease capacity for `p` independent work items under `policy`
    /// (never more threads than items).
    pub fn for_procs(p: usize, policy: ExecPolicy) -> Self {
        let cap = policy.resolved().min(p.max(1));
        match shared_pool() {
            Some(pool) if cap > 1 => PoolLease::Shared { pool, cap },
            _ => PoolLease::Owned(StagePool::new(cap)),
        }
    }

    /// Strictly serial execution on the calling thread.
    pub fn serial() -> Self {
        PoolLease::Owned(StagePool::new(1))
    }

    /// The threads this lease's stages run on: its budget, capped by
    /// the shared pool's size.
    pub fn threads(&self) -> usize {
        match self {
            PoolLease::Shared { pool, cap } => (*cap).min(pool.threads()),
            PoolLease::Owned(pool) => pool.threads(),
        }
    }

    /// Run one stage under this lease's thread budget (see
    /// [`StagePool::run_stage_capped`]).
    pub fn run_stage(
        &self,
        n: usize,
        out: &mut [f64],
        task: impl Fn(usize) -> f64 + Sync,
    ) -> Result<(), StagePanic> {
        match self {
            PoolLease::Shared { pool, cap } => pool.run_stage_capped(n, *cap, out, task),
            PoolLease::Owned(pool) => pool.run_stage(n, out, task),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_resolution() {
        assert!(ExecPolicy::auto().resolved() >= 1);
        assert_eq!(ExecPolicy::serial().resolved(), 1);
        assert_eq!(ExecPolicy::threads(7).resolved(), 7);
        assert_eq!(ExecPolicy::default(), ExecPolicy::auto());
    }

    #[test]
    fn default_threads_override() {
        set_default_threads(3);
        assert_eq!(ExecPolicy::auto().resolved(), 3);
        // Explicit settings are unaffected by the process default.
        assert_eq!(ExecPolicy::serial().resolved(), 1);
        assert_eq!(ExecPolicy::threads(5).resolved(), 5);
        set_default_threads(0);
        assert!(ExecPolicy::auto().resolved() >= 1);
    }

    #[test]
    fn serial_pool_runs_everything_in_order() {
        let pool = StagePool::new(1);
        assert_eq!(pool.threads(), 1);
        let mut out = vec![0.0; 8];
        pool.run_stage(8, &mut out, |i| i as f64 * 1.5).unwrap();
        assert_eq!(out, (0..8).map(|i| i as f64 * 1.5).collect::<Vec<_>>());
    }

    #[test]
    fn pooled_matches_serial_bitwise() {
        let pool = StagePool::new(4);
        let task = |i: usize| ((i * 37 + 11) as f64).sqrt() * 0.33;
        let mut serial = vec![0.0; 100];
        StagePool::new(1).run_stage(100, &mut serial, task).unwrap();
        for _ in 0..10 {
            let mut pooled = vec![0.0; 100];
            pool.run_stage(100, &mut pooled, task).unwrap();
            assert_eq!(serial, pooled);
        }
    }

    #[test]
    fn more_tasks_than_workers_and_fewer() {
        let pool = StagePool::new(2);
        for n in [0usize, 1, 2, 3, 64] {
            let mut out = vec![-1.0; n];
            pool.run_stage(n, &mut out, |i| i as f64).unwrap();
            assert_eq!(out, (0..n).map(|i| i as f64).collect::<Vec<_>>());
        }
    }

    #[test]
    fn pool_survives_many_stages() {
        let pool = StagePool::new(3);
        let mut acc = 0.0;
        let mut out = vec![0.0; 5];
        for _ in 0..500 {
            pool.run_stage(5, &mut out, |i| i as f64).unwrap();
            acc += out.iter().sum::<f64>();
        }
        assert_eq!(acc, 500.0 * 10.0);
    }

    #[test]
    fn panic_in_task_reported_not_hung() {
        let pool = StagePool::new(4);
        let mut out = vec![0.0; 16];
        let err = pool
            .run_stage(16, &mut out, |i| {
                if i == 7 {
                    panic!("task seven exploded");
                }
                i as f64
            })
            .unwrap_err();
        assert!(err.0.contains("task seven exploded"), "{err}");
        // Pool still usable afterwards.
        pool.run_stage(16, &mut out, |i| i as f64).unwrap();
        assert_eq!(out[15], 15.0);
    }

    #[test]
    fn panic_in_serial_path_reported() {
        let pool = StagePool::new(1);
        let mut out = vec![0.0; 4];
        let err = pool
            .run_stage(4, &mut out, |i| {
                if i == 2 {
                    panic!("serial boom");
                }
                0.0
            })
            .unwrap_err();
        assert!(err.0.contains("serial boom"));
    }

    #[test]
    fn disjoint_slice_partitions() {
        let mut data = vec![0u64; 64];
        let ds = DisjointSlice::new(&mut data);
        assert_eq!(ds.len(), 64);
        assert!(!ds.is_empty());
        let pool = StagePool::new(4);
        let mut out = vec![0.0; 4];
        pool.run_stage(4, &mut out, |i| {
            // Safety: per-task index ranges are disjoint by construction.
            for v in i * 16..(i + 1) * 16 {
                unsafe { *ds.get_mut(v) = v as u64 };
            }
            0.0
        })
        .unwrap();
        assert_eq!(data, (0..64u64).collect::<Vec<_>>());
    }

    #[test]
    fn for_procs_caps_at_item_count() {
        let pool = StagePool::for_procs(2, ExecPolicy::threads(16));
        assert_eq!(pool.threads(), 2);
        let pool1 = StagePool::for_procs(0, ExecPolicy::threads(16));
        assert_eq!(pool1.threads(), 1);
    }

    #[test]
    fn concurrent_callers_share_one_pool() {
        // Two jobs hammer the same pool from different threads; every
        // stage of each job must come back bit-identical to its serial
        // twin (stage-granularity interleaving, no cross-talk).
        let pool = StagePool::new(4);
        let task_a = |i: usize| ((i * 13 + 5) as f64).sqrt();
        let task_b = |i: usize| ((i * 7 + 3) as f64).ln_1p();
        let mut want_a = vec![0.0; 64];
        let mut want_b = vec![0.0; 64];
        StagePool::new(1)
            .run_stage(64, &mut want_a, task_a)
            .unwrap();
        StagePool::new(1)
            .run_stage(64, &mut want_b, task_b)
            .unwrap();
        std::thread::scope(|s| {
            s.spawn(|| {
                let mut out = vec![0.0; 64];
                for _ in 0..200 {
                    pool.run_stage(64, &mut out, task_a).unwrap();
                    assert_eq!(out, want_a);
                }
            });
            s.spawn(|| {
                let mut out = vec![0.0; 64];
                for _ in 0..200 {
                    pool.run_stage(64, &mut out, task_b).unwrap();
                    assert_eq!(out, want_b);
                }
            });
        });
    }

    #[test]
    fn capped_stage_matches_uncapped_bitwise() {
        let pool = StagePool::new(8);
        let task = |i: usize| ((i * 31 + 7) as f64).sqrt() * 0.5;
        let mut want = vec![0.0; 96];
        StagePool::new(1).run_stage(96, &mut want, task).unwrap();
        for cap in [1usize, 2, 3, 8, usize::MAX] {
            let mut out = vec![0.0; 96];
            pool.run_stage_capped(96, cap, &mut out, task).unwrap();
            assert_eq!(out, want, "cap = {cap}");
        }
    }

    #[test]
    fn owned_lease_without_shared_pool() {
        // Tests must not initialize the process-wide pool (other tests
        // assert per-run behavior), so only the fallback path is
        // exercised here; serve's integration tests cover the shared
        // path end to end.
        let lease = PoolLease::for_procs(4, ExecPolicy::threads(2));
        if shared_pool().is_none() {
            assert!(matches!(lease, PoolLease::Owned(_)));
        }
        let mut out = vec![0.0; 8];
        lease.run_stage(8, &mut out, |i| i as f64).unwrap();
        assert_eq!(out, (0..8).map(|i| i as f64).collect::<Vec<_>>());
        assert_eq!(PoolLease::serial().threads(), 1);
    }

    #[test]
    fn shared_lease_reports_the_threads_that_run() {
        // A one-thread shared pool runs every stage on the caller alone,
        // whatever budget the lease asked for.
        let pool: &'static StagePool = Box::leak(Box::new(StagePool::new(1)));
        let lease = PoolLease::Shared { pool, cap: 4 };
        assert_eq!(lease.threads(), 1);
        let mut out = vec![0.0; 8];
        lease.run_stage(8, &mut out, |i| i as f64).unwrap();
        assert_eq!(out, (0..8).map(|i| i as f64).collect::<Vec<_>>());
        let wide: &'static StagePool = Box::leak(Box::new(StagePool::new(3)));
        assert_eq!(PoolLease::Shared { pool: wide, cap: 2 }.threads(), 2);
    }
}
