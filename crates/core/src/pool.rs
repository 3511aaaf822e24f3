//! Process-global pool of resident SPMD worker threads.
//!
//! Every backend runs its `p` processors as pool jobs. At large `p`
//! (or many small runs) thread creation would dominate, so this
//! module keeps a process-global pool of **resident** workers that
//! are spawned once and reused for every subsequent run. `execute`
//! runs processor 0 — the phase leader — on the calling thread,
//! submits processors `1..p` to the resident workers, and returns
//! once all completed. The leader thus allocates its per-run metering
//! and pricing state on the caller's thread, as a dedicated driver
//! would; a resident leader would leave those large temporaries
//! fragmenting its own malloc arena from run to run.
//!
//! The pool grows to `p - 1` workers for the largest `p` ever
//! requested — on the simulated backend that can be a thousand or
//! more — unless the knob `QSM_POOL` caps it; workers beyond the cap
//! are spawned per run as overflow scoped threads and do not persist.
//!
//! With `QSM_PIN=1` the worker of processor `i` is pinned to host
//! core `i % available_parallelism()` at spawn via a raw
//! `sched_setaffinity` syscall (the workspace vendors no libc). On
//! platforms where pinning is unsupported or fails, a single warning
//! is printed and workers run unpinned. The calling thread is never
//! pinned.
//!
//! A run holds the pool lock for its whole duration: SPMD jobs
//! rendezvous on barriers, so interleaving two runs' jobs across one
//! set of workers would deadlock. A run that finds the pool taken
//! (another sweep point running concurrently, or a run nested inside
//! a program) does not wait for it: it places all its jobs on
//! overflow threads instead, so concurrent runs never serialize.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Mutex, OnceLock, TryLockError};

use crate::knob;

/// A worker-thread panic payload, forwarded to `execute`'s caller.
type Payload = Box<dyn std::any::Any + Send>;

/// A lifetime-erased job: `execute` guarantees the underlying
/// borrow outlives every use (it blocks until all done-signals are
/// in), so the erased `'static` is never exercised.
type JobRef = &'static (dyn Fn(usize) + Sync);

struct Job {
    f: JobRef,
    proc: usize,
    done: Sender<Result<(), Payload>>,
}

struct PoolState {
    /// Job inboxes of resident workers; `workers[i]` runs processor
    /// `i + 1` (processor 0 runs on the caller).
    workers: Vec<Sender<Job>>,
}

static POOL: OnceLock<Mutex<PoolState>> = OnceLock::new();

/// Every worker thread this module ever spawned (resident and
/// overflow). Monotonic; never reset.
static SPAWNED: AtomicU64 = AtomicU64::new(0);

/// Total worker threads spawned by the engine so far in this process
/// (resident pool workers plus per-run overflow workers). The delta
/// across two `run()` calls is zero exactly when the pool was fully
/// reused; tests assert on it.
pub fn spawned_workers() -> u64 {
    SPAWNED.load(Ordering::Acquire)
}

/// Resident-worker cap from `QSM_POOL` (default: unbounded, i.e. the
/// pool grows to the largest `p` ever requested; `0` keeps no
/// resident workers at all). Read once per process.
fn pool_cap() -> usize {
    static CAP: OnceLock<usize> = OnceLock::new();
    *CAP.get_or_init(|| knob::env_usize("QSM_POOL").unwrap_or(usize::MAX))
}

/// Whether `QSM_PIN` requests core affinity. Read once per process.
fn pinning() -> bool {
    static PIN: OnceLock<bool> = OnceLock::new();
    *PIN.get_or_init(|| knob::env_usize("QSM_PIN").is_some_and(|v| v != 0))
}

/// Whether `QSM_PIN` requested core affinity for this process (the
/// engine reports it as run telemetry; whether pinning *succeeded* is
/// only knowable per-worker and is warned about separately).
pub(crate) fn pinning_requested() -> bool {
    pinning()
}

/// Logical host cores (1 when undetectable). Read once per process.
pub fn host_cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1))
}

fn warn_pin_failed_once() {
    static WARNED: OnceLock<()> = OnceLock::new();
    WARNED.get_or_init(|| {
        eprintln!(
            "warning: QSM_PIN requested but core pinning failed or is unsupported \
             on this platform; workers run unpinned"
        );
    });
}

/// Pin the calling thread when `QSM_PIN` asks for it (warn-once
/// fallback otherwise). Worker `idx` goes to core
/// `idx % available_parallelism()`.
fn maybe_pin(idx: usize) {
    if pinning() && !pin_to_core(idx % host_cores()) {
        warn_pin_failed_once();
    }
}

/// `sched_setaffinity(0, len, mask)` by raw syscall — the workspace
/// vendors no libc and the Linux syscall ABI is stable.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
fn pin_to_core(core: usize) -> bool {
    let mut mask = [0u64; 16]; // up to 1024 logical CPUs
    if core >= mask.len() * 64 {
        return false;
    }
    mask[core / 64] |= 1u64 << (core % 64);
    let ret: isize;
    unsafe {
        std::arch::asm!(
            "syscall",
            inlateout("rax") 203isize => ret, // __NR_sched_setaffinity
            in("rdi") 0usize,                 // pid 0 = calling thread
            in("rsi") std::mem::size_of_val(&mask),
            in("rdx") mask.as_ptr(),
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
    }
    ret == 0
}

/// `sched_setaffinity(0, len, mask)` by raw syscall (see x86_64 note).
#[cfg(all(target_os = "linux", target_arch = "aarch64"))]
fn pin_to_core(core: usize) -> bool {
    let mut mask = [0u64; 16]; // up to 1024 logical CPUs
    if core >= mask.len() * 64 {
        return false;
    }
    mask[core / 64] |= 1u64 << (core % 64);
    let ret: isize;
    unsafe {
        std::arch::asm!(
            "svc 0",
            in("x8") 122isize, // __NR_sched_setaffinity
            inlateout("x0") 0isize => ret,
            in("x1") std::mem::size_of_val(&mask),
            in("x2") mask.as_ptr(),
            options(nostack),
        );
    }
    ret == 0
}

#[cfg(not(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64"))))]
fn pin_to_core(_core: usize) -> bool {
    false
}

/// Spawn the resident worker of processor `proc`: a detached
/// process-lifetime thread that loops on its job inbox. The defensive
/// `catch_unwind` keeps a panicking job from killing the resident
/// worker (the SPMD engine catches its own panics, so this fires only
/// for foreign jobs).
fn spawn_resident(proc: usize) -> Sender<Job> {
    let (tx, rx) = channel::<Job>();
    SPAWNED.fetch_add(1, Ordering::AcqRel);
    std::thread::Builder::new()
        .name(format!("qsm-pool-{proc}"))
        .spawn(move || {
            maybe_pin(proc);
            while let Ok(job) = rx.recv() {
                let result = catch_unwind(AssertUnwindSafe(|| (job.f)(job.proc)));
                let _ = job.done.send(result);
            }
        })
        .expect("failed to spawn pool worker");
    tx
}

/// How one `execute` call placed its jobs: `resident + overflow ==
/// p - 1`, processor 0 running on the caller. Depends on process
/// history (the first run spawns the residents) and on concurrent
/// runs (a run that finds the pool busy overflows entirely), so it is
/// telemetry for single-run captures only.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ExecStats {
    /// Jobs placed on resident (reused) pool workers.
    pub(crate) resident: usize,
    /// Jobs placed on per-call overflow threads.
    pub(crate) overflow: usize,
    /// Worker threads spawned by this call (pool growth + overflow).
    /// Unlike a delta of the global [`spawned_workers`] counter, it
    /// never attributes another concurrent call's spawns to this one.
    pub(crate) spawned: u64,
}

/// Run `job(proc)` for every `proc` in `0..p`, each invocation on its
/// own thread, and return once all `p` invocations completed.
///
/// Processor 0 runs on the calling thread. Processors
/// `1..=min(p - 1, QSM_POOL)` run on resident pool workers (spawned
/// on first use, reused ever after); any remainder — or all of them,
/// when another run holds the pool — runs on per-call overflow
/// threads. If any job panicked, one payload (processor 0's, else the
/// first by completion order) is re-raised after all jobs finished.
/// Returns how the jobs were placed.
pub(crate) fn execute(p: usize, job: &(dyn Fn(usize) + Sync)) -> ExecStats {
    let helpers = p.saturating_sub(1);
    let pool = POOL.get_or_init(|| Mutex::new(PoolState { workers: Vec::new() }));
    // Held for the entire call — see the module doc on concurrency.
    let mut state = match pool.try_lock() {
        Ok(state) => Some(state),
        Err(TryLockError::Poisoned(e)) => Some(e.into_inner()),
        Err(TryLockError::WouldBlock) => None,
    };
    let mut grown = 0u64;
    if let Some(state) = state.as_mut() {
        while state.workers.len() < helpers.min(pool_cap()) {
            let proc = state.workers.len() + 1;
            state.workers.push(spawn_resident(proc));
            grown += 1;
        }
    }
    let residents = state.as_ref().map_or(&[][..], |s| &s.workers[..]);
    let resident_used = helpers.min(residents.len());
    // SAFETY: the erased job reference is used only by resident
    // workers (until their done-signal below) and overflow scope
    // threads (joined before the scope ends); both complete before
    // `execute` returns, so the borrow outlives every use.
    let job_static: JobRef = unsafe { std::mem::transmute(job) };
    let (done_tx, done_rx) = channel::<Result<(), Payload>>();
    let first_panic = std::thread::scope(|scope| {
        for proc in 1 + resident_used..p {
            SPAWNED.fetch_add(1, Ordering::AcqRel);
            let done = done_tx.clone();
            scope.spawn(move || {
                maybe_pin(proc);
                let result = catch_unwind(AssertUnwindSafe(|| job_static(proc)));
                let _ = done.send(result);
            });
        }
        for (i, worker) in residents[..resident_used].iter().enumerate() {
            worker
                .send(Job { f: job_static, proc: i + 1, done: done_tx.clone() })
                .expect("pool worker died");
        }
        let mut first_panic = None;
        if p > 0 {
            first_panic = catch_unwind(AssertUnwindSafe(|| job(0))).err();
        }
        for _ in 0..helpers {
            if let Err(payload) = done_rx.recv().expect("worker hung up") {
                first_panic.get_or_insert(payload);
            }
        }
        first_panic
    });
    drop(state);
    if let Some(payload) = first_panic {
        std::panic::resume_unwind(payload);
    }
    ExecStats {
        resident: resident_used,
        overflow: helpers - resident_used,
        spawned: grown + (helpers - resident_used) as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn execute_runs_every_proc_exactly_once() {
        let hits: Vec<AtomicUsize> = (0..8).map(|_| AtomicUsize::new(0)).collect();
        let job = |proc: usize| {
            hits[proc].fetch_add(1, Ordering::SeqCst);
        };
        let stats = execute(8, &job);
        for h in &hits {
            assert_eq!(h.load(Ordering::SeqCst), 1);
        }
        assert_eq!(stats.resident + stats.overflow, 7, "processor 0 runs on the caller");
    }

    #[test]
    fn repeated_execute_reuses_resident_workers() {
        // Other tests in this binary run machines concurrently, and a
        // run that finds the pool busy overflows, so reuse is checked
        // per call: warm the pool to the largest p any test here uses
        // (retrying while another run holds it), then every call that
        // gets the pool must spawn nothing.
        while execute(8, &|_proc| {}).resident == 0 {}
        for _ in 0..3 {
            let stats = execute(8, &|_proc| {});
            assert_eq!(stats.resident + stats.overflow, 7);
            if stats.resident > 0 {
                assert_eq!(stats.spawned, 0, "resident workers must be reused");
            }
        }
    }

    #[test]
    fn a_run_that_finds_the_pool_busy_overflows() {
        // A run nested inside a job finds the pool taken by the outer
        // run; waiting for the lock would deadlock.
        let inner = Mutex::new(None);
        let outer = execute(2, &|proc| {
            if proc == 0 {
                *inner.lock().unwrap() = Some(execute(2, &|_| {}));
            }
        });
        let inner = inner.into_inner().unwrap().expect("nested run completed");
        assert_eq!(inner.resident + inner.overflow, 1);
        if outer.resident > 0 {
            assert_eq!(inner.overflow, 1, "the busy pool must not place jobs");
        }
    }

    #[test]
    fn pinning_tracks_the_knob() {
        // The cached knob must agree with the environment (CI runs
        // this suite both with and without QSM_PIN=1), and pinning —
        // requested or not — must never panic.
        let requested = std::env::var("QSM_PIN").is_ok_and(|v| v != "0");
        assert_eq!(pinning(), requested);
        maybe_pin(0);
    }
}
