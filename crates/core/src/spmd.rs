//! The SPMD engine: a lock-free, double-buffered `sync()`.
//!
//! Every backend runs here; no driver thread exists. Every worker
//! publishes its phase contribution (charged ops, queued puts/gets,
//! registrations, and a pointer to its own memory segments) into a
//! per-processor **slot** of a shared [`ExchangeArea`], then crosses
//! two barriers per phase:
//!
//! ```text
//!   publish slot[phase % 2]          (each worker, its own slot)
//!   ── B1 ──────────────────────────
//!   leader: plan stage               (worker 0; reads all slots,
//!                                     builds the put routes)
//!   all:    serve own gets           (read peers' frozen stores)
//!   ── B2 ──────────────────────────
//!   all:    apply puts routed to own block, install/retire arrays
//!   leader: price + record stages    (overlaps peers' next compute)
//! ```
//!
//! Slots are double-buffered by phase parity (the `active_buffer`
//! idiom): phase *k* publishes into `slots[k % 2]`, so the leader's
//! trailing price/record work on phase *k* can overlap the peers'
//! publication of phase *k+1* without contention. A slot stays
//! untouched until its owner republishes at phase *k+2*, which cannot
//! happen before the leader finished phase *k* (the leader only
//! reaches the *k+1* barriers after recording *k*).
//!
//! The plan/price/record stages are the driver's (`Driver::plan_stage`
//! & co.). The exchange is distributed: workers serve their own gets
//! from peers' frozen stores between the barriers, and after B2 each
//! applies only the puts the plan stage routed to its own block
//! ([`PutRoutes`]), in processor-then-issue order. Applying costs each
//! worker O(its incoming puts), not O(every put of the phase).
//!
//! ### Spinning or blocking
//!
//! Barrier waiters spin (then yield) only when every worker can have
//! a core: `p` at most the host's available parallelism. Otherwise —
//! the simulated backend routinely runs p = 1024 workers on a handful
//! of cores — spinning would starve the very threads being waited on,
//! so waiters block on a condition variable straight away. Either way
//! a releaser skips the wake-up syscall when nobody sleeps.
//!
//! ### Memory-safety windows
//!
//! All cross-thread access to slot contents is bracketed by the two
//! barriers (which provide the happens-before edges):
//!
//! * a slot published for phase *k* is read by others only between
//!   B1(*k*) and the leader's record(*k*);
//! * each worker's [`LocalStore`] is frozen from its publish until
//!   B2(*k*) (reads by any worker), and mutated only by its owner
//!   afterwards;
//! * registration slices published by pointer are read only by the
//!   leader between B1 and B2; owners clear them after B2;
//! * the put routes are written by the leader between B1(*k*) and
//!   B2(*k*) and read by every worker between B2(*k*) and B1(*k+1*).
//!
//! ### Aborts
//!
//! A panicking worker (user program or a collective-violation check)
//! poisons the shared barrier; every other worker observes the poison
//! at its next (or current) wait and unwinds with a private
//! [`SpmdAborted`] marker. All workers then meet at an exit
//! rendezvous — no worker's `Ctx` (and thus no published store) is
//! dropped while a peer could still read it — and the engine re-raises
//! the first real payload.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, PoisonError};
use std::time::Instant;

use qsm_obs::{Recorder, Span, SpanKind};
use qsm_simnet::Cycles;

use crate::addr::{block_range, for_each_owner_run, ArrayId, Layout};
use crate::ctx::Ctx;
use crate::driver::{Driver, PhasePlan, PhaseRecord, PutRoutes};
use crate::machine::PhaseTimer;
use crate::ops::QueuedOps;
use crate::shmem::{ArrayInfo, LocalStore, Registration};

/// Marker payload workers unwind with when a *peer* failed: the
/// engine suppresses it in favor of the originating panic.
pub(crate) struct SpmdAborted;

#[cold]
fn aborted() -> ! {
    std::panic::panic_any(SpmdAborted);
}

/// Spins (busy, then yielding) a spinning waiter makes before it
/// blocks.
const SPIN_LIMIT: u32 = 256;
/// Of those, the first ones only hint the CPU; the rest yield.
const SPIN_BUSY: u32 = 64;

/// A reusable, poisonable barrier (sense via a generation counter)
/// that spins or blocks by the rule on the module doc. `wait()`
/// returns whether the barrier is poisoned; poisoned barriers release
/// all current and future waiters immediately, which is how a
/// panicking worker unblocks its peers.
///
/// Blocking uses one mutex + condvar and a sleeper count. A waiter
/// registers as a sleeper under the lock before its last check of the
/// condition; a releaser publishes the condition, then reads the
/// sleeper count (both `SeqCst`), so either the waiter sees the
/// release or the releaser sees the sleeper and notifies under the
/// lock — no lost wake-ups, and no syscall when nobody sleeps.
///
/// With `track` on, every wait that escalated past pure spinning
/// bumps one of two relaxed telemetry counters (its deepest state:
/// yield or block) — cheap enough to leave in the wait path, but only
/// requested when full-level observability is capturing.
struct PhaseBarrier {
    p: usize,
    count: AtomicUsize,
    gen: AtomicUsize,
    poisoned: AtomicBool,
    /// Whether waiters spin before blocking (`p` ≤ host cores).
    spin: bool,
    sleepers: AtomicUsize,
    lock: Mutex<()>,
    cv: Condvar,
    track: bool,
    /// Waits whose deepest state was `yield_now`.
    yields: AtomicU64,
    /// Waits that blocked on the condvar.
    blocks: AtomicU64,
}

impl PhaseBarrier {
    fn new(p: usize, spin: bool, track: bool) -> Self {
        Self {
            p,
            count: AtomicUsize::new(0),
            gen: AtomicUsize::new(0),
            poisoned: AtomicBool::new(false),
            spin,
            sleepers: AtomicUsize::new(0),
            lock: Mutex::new(()),
            cv: Condvar::new(),
            track,
            yields: AtomicU64::new(0),
            blocks: AtomicU64::new(0),
        }
    }

    fn poison(&self) {
        self.poisoned.store(true, Ordering::SeqCst);
        self.wake_all();
    }

    fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::SeqCst)
    }

    /// Wake every blocked waiter; called after a `SeqCst` store that
    /// makes some waiter's condition true.
    fn wake_all(&self) {
        if self.sleepers.load(Ordering::SeqCst) > 0 {
            // Taking the lock orders this wake-up after any sleeper's
            // final check: it is either inside `wait` or saw the store.
            drop(self.lock.lock().unwrap_or_else(PoisonError::into_inner));
            self.cv.notify_all();
        }
    }

    /// Wait until `ready()` (which must read with `SeqCst`) holds:
    /// spin first when spinning can help, then block.
    fn wait_until(&self, ready: impl Fn() -> bool) {
        let mut spins = 0u32;
        if self.spin {
            while spins < SPIN_LIMIT {
                if ready() {
                    break;
                }
                if spins < SPIN_BUSY {
                    std::hint::spin_loop();
                } else {
                    std::thread::yield_now();
                }
                spins += 1;
            }
        }
        let blocked = spins == SPIN_LIMIT || !self.spin;
        if blocked && !ready() {
            let mut guard = self.lock.lock().unwrap_or_else(PoisonError::into_inner);
            self.sleepers.fetch_add(1, Ordering::SeqCst);
            while !ready() {
                guard = self.cv.wait(guard).unwrap_or_else(PoisonError::into_inner);
            }
            self.sleepers.fetch_sub(1, Ordering::SeqCst);
            if self.track {
                self.blocks.fetch_add(1, Ordering::Relaxed);
            }
        } else if self.track && spins > SPIN_BUSY {
            self.yields.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Block until all `p` workers arrived (or the barrier was
    /// poisoned); returns `true` iff poisoned. The store of `gen` by
    /// the last arriver and the loads by the waiters (plus the AcqRel
    /// RMW chain on `count`) provide the happens-before edge between
    /// everything published before the barrier and everything read
    /// after it.
    fn wait(&self) -> bool {
        if self.is_poisoned() {
            return true;
        }
        let g = self.gen.load(Ordering::SeqCst);
        if self.count.fetch_add(1, Ordering::AcqRel) + 1 == self.p {
            self.count.store(0, Ordering::Relaxed);
            self.gen.store(g + 1, Ordering::SeqCst);
            self.wake_all();
        } else {
            self.wait_until(|| self.gen.load(Ordering::SeqCst) != g || self.is_poisoned());
        }
        self.is_poisoned()
    }

    /// `(yield, block)` escalation counts accumulated so far (always
    /// zero unless tracking was requested at construction).
    fn transitions(&self) -> (u64, u64) {
        (self.yields.load(Ordering::Relaxed), self.blocks.load(Ordering::Relaxed))
    }
}

/// Slot states (plain `u8` behind the barrier's ordering).
const STATE_EMPTY: u8 = 0;
const STATE_SYNCED: u8 = 1;
const STATE_FINISHED: u8 = 2;

/// One processor's published phase contribution. Written only by its
/// owner (at publish time); read by peers only inside the barrier
/// windows documented on the module.
pub(crate) struct Slot {
    state: AtomicU8,
    charged: UnsafeCell<u64>,
    arrived: UnsafeCell<Instant>,
    /// Queued ops, moved in at publish; the owner takes the emptied
    /// containers back when it republishes two phases later.
    ops: UnsafeCell<QueuedOps>,
    /// The owner's pending registrations (valid B1..B2; leader only).
    regs: UnsafeCell<*const [Registration]>,
    /// The owner's pending unregistrations (valid B1..B2; leader only).
    unregs: UnsafeCell<*const [ArrayId]>,
    /// The owner's memory view (frozen publish..B2; any worker).
    store: UnsafeCell<*const LocalStore>,
}

impl Slot {
    fn new() -> Self {
        const NO_REGS: &[Registration] = &[];
        const NO_UNREGS: &[ArrayId] = &[];
        Self {
            state: AtomicU8::new(STATE_EMPTY),
            charged: UnsafeCell::new(0),
            arrived: UnsafeCell::new(Instant::now()),
            ops: UnsafeCell::new(QueuedOps::default()),
            regs: UnsafeCell::new(NO_REGS as *const [Registration]),
            unregs: UnsafeCell::new(NO_UNREGS as *const [ArrayId]),
            store: UnsafeCell::new(std::ptr::null()),
        }
    }
}

// The leader's stages read published slots through these accessors.
// SAFETY: every UnsafeCell in a Slot follows the single-writer
// barrier-bracketed protocol documented on the module: the owner
// writes only at publish time, peers read only inside the barrier
// windows, and the barrier provides the required happens-before.
impl Slot {
    pub(crate) fn charged(&self) -> u64 {
        unsafe { *self.charged.get() }
    }
    pub(crate) fn arrived(&self) -> Instant {
        unsafe { *self.arrived.get() }
    }
    pub(crate) fn ops(&self) -> &QueuedOps {
        unsafe { &*self.ops.get() }
    }
    pub(crate) fn regs(&self) -> &[Registration] {
        unsafe { &**self.regs.get() }
    }
    pub(crate) fn unregs(&self) -> &[ArrayId] {
        unsafe { &**self.unregs.get() }
    }
}

/// Run-level observability handle for the SPMD path: the shared
/// recorder plus the timer's epoch instant every worker-side span
/// timestamp is measured from (so worker lanes and the leader's
/// machine track share one timeline). Created by the engine only
/// when full-level capture is on.
pub(crate) struct RunObs {
    pub(crate) rec: Recorder,
    pub(crate) epoch: Instant,
}

/// One worker's span capture across an SPMD run. Spans are buffered
/// locally and flushed to the recorder at the exit epilogue — after
/// every phase has been priced — so capture never perturbs measured
/// timing (the "spans after measurement" discipline).
pub(crate) struct SpmdObs {
    rec: Recorder,
    epoch: Instant,
    /// End of the previous stage = start of the next span:
    /// consecutive spans share boundary instants, so each worker's
    /// lane tiles exactly with no gaps or overlap.
    cursor: Instant,
    spans: Vec<Span>,
}

impl SpmdObs {
    fn new(obs: &RunObs) -> Self {
        Self { rec: obs.rec.clone(), epoch: obs.epoch, cursor: obs.epoch, spans: Vec::new() }
    }

    fn ns(&self, t: Instant) -> Cycles {
        Cycles::new(t.saturating_duration_since(self.epoch).as_nanos() as f64)
    }

    /// Close the span that started at the cursor and advance it:
    /// the stage `kind` of `phase` on worker lane `lane` ran from the
    /// previous mark to now.
    fn mark(&mut self, kind: SpanKind, phase: u64, lane: u32) {
        let now = Instant::now();
        let start = self.ns(self.cursor);
        self.spans.push(Span { kind, phase, lane, start, dur: self.ns(now) - start });
        self.cursor = now;
    }

    /// Flush the buffered spans and the per-worker roll-ups (barrier
    /// leg waits, busy/wait totals, utilization) into the recorder.
    fn flush(mut self) {
        let mut busy = 0.0f64;
        let mut wait = 0.0f64;
        for s in &self.spans {
            if s.kind == SpanKind::BarrierWait {
                wait += s.dur.get();
            } else {
                busy += s.dur.get();
            }
        }
        self.rec.observe_iter(
            "barrier_wait_ns",
            self.spans
                .iter()
                .filter(|s| s.kind == SpanKind::BarrierWait)
                .map(|s| s.dur.get() as u64),
        );
        let total = busy + wait;
        if total > 0.0 {
            self.rec.observe("spmd_worker_util_pct", (busy * 100.0 / total + 0.5) as u64);
        }
        self.rec.add("spmd_busy_ns", busy as u64);
        self.rec.add("spmd_wait_ns", wait as u64);
        self.rec.spans(self.spans.drain(..));
    }
}

/// Phase-pipeline state owned by worker 0 (the leader): the shared
/// metering/pricing driver, the backend timer, and the growing record
/// stream.
struct LeaderState {
    driver: Driver,
    timer: Box<dyn PhaseTimer>,
    records: Vec<PhaseRecord>,
    plan: Option<PhasePlan>,
}

/// The shared rendezvous structure of one SPMD run. Lives on the
/// engine's stack frame; workers borrow it for the run's duration
/// (the exit rendezvous guarantees no worker outlives the borrow).
pub(crate) struct ExchangeArea {
    p: usize,
    /// Double-buffered per-processor slots, indexed `[phase % 2][proc]`.
    slots: [Box<[Slot]>; 2],
    barrier: PhaseBarrier,
    /// The current phase's per-destination put index (written by the
    /// leader's plan stage; see the module doc for its window).
    routes: UnsafeCell<PutRoutes>,
    /// Exit rendezvous: workers count themselves out and wait until
    /// everyone left, so no `Ctx` drops while a peer might read it.
    exited: AtomicUsize,
    /// Real panic payloads, stashed by the engine's worker wrapper.
    panics: Mutex<Vec<(usize, Box<dyn std::any::Any + Send>)>>,
    leader: UnsafeCell<LeaderState>,
    /// Full-level capture handle; workers clone per-lane span buffers
    /// off it in `make_ctx`. `None` keeps the whole path span-free.
    obs: Option<RunObs>,
}

// SAFETY: Slot access follows the single-writer barrier protocol
// (see the module doc); `routes` is written only by worker 0 between
// B1 and B2 and read by every worker only between B2 and the next B1;
// `leader` is touched only by worker 0 during the run and by the
// owning engine frame after every worker exited.
unsafe impl Sync for ExchangeArea {}

impl ExchangeArea {
    pub(crate) fn new(
        p: usize,
        driver: Driver,
        timer: Box<dyn PhaseTimer>,
        obs: Option<RunObs>,
    ) -> Self {
        let mk = || (0..p).map(|_| Slot::new()).collect::<Vec<_>>().into_boxed_slice();
        Self {
            p,
            slots: [mk(), mk()],
            barrier: PhaseBarrier::new(p, p <= crate::pool::host_cores(), obs.is_some()),
            routes: UnsafeCell::new(PutRoutes::default()),
            exited: AtomicUsize::new(0),
            panics: Mutex::new(Vec::new()),
            leader: UnsafeCell::new(LeaderState { driver, timer, records: Vec::new(), plan: None }),
            obs,
        }
    }

    /// `(yield, block)` escalations the barrier accumulated
    /// over the run (zero unless capture was on).
    pub(crate) fn barrier_transitions(&self) -> (u64, u64) {
        self.barrier.transitions()
    }

    /// Release all workers blocked (now or later) on the barrier;
    /// called by the engine's wrapper when any worker panics.
    pub(crate) fn poison(&self) {
        self.barrier.poison();
    }

    /// Record a real (non-marker) panic payload for re-raising.
    pub(crate) fn stash_panic(&self, proc: usize, payload: Box<dyn std::any::Any + Send>) {
        self.panics.lock().unwrap_or_else(|e| e.into_inner()).push((proc, payload));
    }

    /// Tear down after every worker exited: the recorded phases and
    /// the lowest-processor real panic payload, if any.
    pub(crate) fn into_results(self) -> (Vec<PhaseRecord>, Option<Box<dyn std::any::Any + Send>>) {
        let mut panics = self.panics.into_inner().unwrap_or_else(|e| e.into_inner());
        panics.sort_by_key(|&(proc, _)| proc);
        let payload = (!panics.is_empty()).then(|| panics.remove(0).1);
        (self.leader.into_inner().records, payload)
    }
}

/// A `Ctx`'s handle onto the exchange area. The raw pointer is
/// dereferenced only while the engine's stack frame (which owns the
/// area and blocks until every worker exits) is alive.
#[derive(Clone, Copy)]
pub(crate) struct SpmdLink {
    area: *const ExchangeArea,
}

/// Build the per-processor context for one SPMD worker (attaching a
/// span buffer when the run captures at full level).
pub(crate) fn make_ctx(proc: usize, nprocs: usize, seed: u64, area: &ExchangeArea) -> Ctx {
    let mut ctx = Ctx::new(proc, nprocs, seed, SpmdLink { area });
    if let Some(obs) = &area.obs {
        ctx.spmd_obs = Some(Box::new(SpmdObs::new(obs)));
    }
    ctx
}

/// Count this worker out and wait until every worker did; after this
/// returns, no peer will ever read this worker's `Ctx` again.
pub(crate) fn exit_rendezvous(area: &ExchangeArea) {
    if area.exited.fetch_add(1, Ordering::SeqCst) + 1 == area.p {
        area.barrier.wake_all();
    } else {
        area.barrier.wait_until(|| area.exited.load(Ordering::SeqCst) == area.p);
    }
}

fn area_of(ctx: &Ctx) -> &'static ExchangeArea {
    let link = ctx.link;
    // SAFETY: the engine keeps the area alive until after the exit
    // rendezvous, which strictly follows every use of this reference.
    // (The 'static is a local fiction; the reference never escapes
    // the sync/epilogue call that derived it.)
    unsafe { &*link.area }
}

/// Move this phase's contribution into our slot at `parity`,
/// reclaiming the buffers the slot still holds from phase-2.
fn publish(ctx: &mut Ctx, area: &ExchangeArea, parity: usize, state: u8) {
    let slot = &area.slots[parity][ctx.proc];
    // SAFETY: only the owner writes its slot, and the phase-(k-2)
    // tenant is fully retired by the time phase k publishes (module
    // doc); no reader may touch the slot until after B1.
    unsafe {
        let ops_cell = &mut *slot.ops.get();
        let mut old = std::mem::replace(ops_cell, ctx.queued.take());
        old.clear();
        ctx.queued = old;
        *slot.charged.get() = std::mem::take(&mut ctx.charged);
        *slot.regs.get() = ctx.pending_regs.as_slice() as *const [Registration];
        *slot.unregs.get() = ctx.pending_unregs.as_slice() as *const [ArrayId];
        *slot.store.get() = &ctx.store as *const LocalStore;
        // Captured last: wall-clock backends read this as "compute
        // ended here" (the price stage's compute/comm split).
        *slot.arrived.get() = Instant::now();
    }
    slot.state.store(state, Ordering::Release);
}

/// How many workers published `FINISHED` at this parity.
fn count_finished(area: &ExchangeArea, parity: usize) -> usize {
    area.slots[parity].iter().filter(|s| s.state.load(Ordering::Relaxed) == STATE_FINISHED).count()
}

#[cold]
fn collective_violation(finished: usize, p: usize) -> ! {
    panic!(
        "collective violation: {} processor(s) returned while {} called sync()",
        finished,
        p - finished
    );
}

/// Serve this worker's own queued gets from the peers' published
/// (pre-put) stores. Runs between B1 and B2, where every store at
/// this parity is frozen.
fn serve_own_gets(ctx: &mut Ctx, area: &ExchangeArea, parity: usize) {
    let p = area.p;
    // SAFETY: our own slot's ops are ours to read; peers' store
    // pointers are valid and frozen until B2 (module doc).
    let my_ops = unsafe { &*area.slots[parity][ctx.proc].ops.get() };
    for op in &my_ops.gets {
        let len = ctx.store.info(op.array).len;
        let mut out = ctx.raw_pool.pop().unwrap_or_default();
        out.clear();
        out.reserve(op.len);
        for_each_owner_run(Layout::Block, op.array, len, p, op.start, op.len, |owner, s, l| {
            // SAFETY: see above — frozen peer store, valid until B2.
            let peer = unsafe { &*(*area.slots[parity][owner].store.get()) };
            let base = block_range(len, p, owner).start;
            let seg = peer.segment(op.array);
            out.extend_from_slice(&seg[s - base..s - base + l]);
        });
        ctx.tickets.fulfill(op.ticket, out);
    }
}

/// After B2: apply every put the plan stage routed to this worker's
/// block (in processor-then-issue order, the deterministic
/// resolution of concurrent writes), then install newly registered
/// arrays zero-initialized and retire unregistered ones.
fn apply_exchange(ctx: &mut Ctx, area: &ExchangeArea, parity: usize) {
    let p = area.p;
    let me = ctx.proc;
    // SAFETY: the leader wrote the routes before B2 and rewrites them
    // only after B1 of the next phase, which we have not reached.
    let routes = unsafe { &*area.routes.get() };
    routes.for_each(me, |src, k| {
        // Phase-k ops stay frozen until their owner republishes at
        // k+2, which the barrier structure forbids before the leader
        // records k (module doc).
        let ops = area.slots[parity][src].ops();
        let op = &ops.puts[k];
        let block = block_range(ctx.store.info(op.array).len, p, me);
        let lo = op.start.max(block.start);
        let hi = (op.start + op.len).min(block.end);
        ctx.store.segment_mut(op.array)[lo - block.start..hi - block.start]
            .copy_from_slice(&ops.payload(op)[lo - op.start..hi - op.start]);
    });
    let mut regs = std::mem::take(&mut ctx.pending_regs);
    let first_new = ctx.next_array_id - regs.len() as u32;
    for (k, reg) in regs.drain(..).enumerate() {
        let id = ArrayId(first_new + k as u32);
        let seg_len = block_range(reg.len, p, me).len();
        ctx.store.install(
            ArrayInfo {
                id,
                name: reg.name,
                len: reg.len,
                elem_bytes: reg.elem_bytes,
                layout: reg.layout,
            },
            vec![0u64; seg_len],
        );
    }
    ctx.pending_regs = regs;
    let mut unregs = std::mem::take(&mut ctx.pending_unregs);
    for id in unregs.drain(..) {
        ctx.store.remove(id);
    }
    ctx.pending_unregs = unregs;
}

/// Worker 0, between B1 and B2: run the driver's plan stage over the
/// published slots (collective validation, id assignment, metering).
fn leader_plan(area: &ExchangeArea, parity: usize) {
    // SAFETY: worker 0 is the only accessor of the leader state
    // during the run.
    let leader = unsafe { &mut *area.leader.get() };
    // SAFETY: between B1 and B2 no other worker reads the routes.
    let routes = unsafe { &mut *area.routes.get() };
    let plan = leader.driver.plan_stage(&area.slots[parity], routes);
    leader.plan = Some(plan);
}

/// Worker 0, after B2: price and record the phase (overlapping the
/// peers' next compute), then retire the plan's metadata changes.
fn leader_finish(area: &ExchangeArea, parity: usize) {
    // SAFETY: as in `leader_plan`.
    let leader = unsafe { &mut *area.leader.get() };
    let plan = leader.plan.take().expect("leader plan missing at phase end");
    let timing = leader.driver.price_stage(&area.slots[parity], leader.timer.as_mut());
    let faults = leader.timer.fault_counts();
    let bank_wait = leader.timer.bank_wait();
    let link = (leader.timer.link_wait(), leader.timer.link_util());
    let record = leader.driver.record_stage(&plan, timing, faults, bank_wait, link);
    leader.records.push(record);
    leader.driver.finish_phase_meta(&plan);
}

/// One SPMD `sync()`: the publish / B1 / plan+serve / B2 / apply
/// pipeline described on the module.
///
/// When span capture is on (`ctx.spmd_obs`), each stage boundary is
/// marked into the worker's lane buffer: compute (ending at publish),
/// the B1 wait, the leader's plan, serving gets, the B2 wait,
/// applying puts, and the leader's price/record tail. Marks append to
/// a local `Vec` — nothing is flushed (or locked) until the exit
/// epilogue, after all measurement.
pub(crate) fn sync_phase(ctx: &mut Ctx) {
    let area = area_of(ctx);
    let parity = (ctx.phase & 1) as usize;
    // Taken (not borrowed) so marking cannot alias the &mut ctx the
    // pipeline stages need; restored before returning.
    let mut obs = ctx.spmd_obs.take();
    let (phase, lane) = (ctx.phase, ctx.proc as u32);
    publish(ctx, area, parity, STATE_SYNCED);
    if let Some(o) = obs.as_deref_mut() {
        o.mark(SpanKind::Compute, phase, lane);
    }
    if area.barrier.wait() {
        aborted();
    }
    if let Some(o) = obs.as_deref_mut() {
        o.mark(SpanKind::BarrierWait, phase, lane);
    }
    let finished = count_finished(area, parity);
    if finished > 0 {
        collective_violation(finished, area.p);
    }
    if ctx.proc == 0 {
        leader_plan(area, parity);
        if let Some(o) = obs.as_deref_mut() {
            o.mark(SpanKind::LeaderPlan, phase, lane);
        }
    }
    serve_own_gets(ctx, area, parity);
    if let Some(o) = obs.as_deref_mut() {
        o.mark(SpanKind::ServeGets, phase, lane);
    }
    if area.barrier.wait() {
        aborted();
    }
    if let Some(o) = obs.as_deref_mut() {
        o.mark(SpanKind::BarrierWait, phase, lane);
    }
    apply_exchange(ctx, area, parity);
    if let Some(o) = obs.as_deref_mut() {
        o.mark(SpanKind::ApplyPuts, phase, lane);
    }
    if ctx.proc == 0 {
        leader_finish(area, parity);
        if let Some(o) = obs.as_deref_mut() {
            o.mark(SpanKind::LeaderPrice, phase, lane);
        }
    }
    ctx.spmd_obs = obs;
    ctx.phase += 1;
}

/// SPMD teardown: publish `FINISHED` and rendezvous one last time so
/// a mismatched `sync()` elsewhere is diagnosed as a collective
/// violation (every worker must return together). With capture on,
/// the final compute leg and rendezvous wait are marked, then the
/// worker's whole span buffer is flushed — every phase has been
/// priced by now, so recorder locking cannot perturb measurement.
pub(crate) fn epilogue(ctx: &mut Ctx) {
    let area = area_of(ctx);
    let parity = (ctx.phase & 1) as usize;
    let mut obs = ctx.spmd_obs.take();
    let (phase, lane) = (ctx.phase, ctx.proc as u32);
    publish(ctx, area, parity, STATE_FINISHED);
    if let Some(o) = obs.as_deref_mut() {
        o.mark(SpanKind::Compute, phase, lane);
    }
    if area.barrier.wait() {
        aborted();
    }
    let finished = count_finished(area, parity);
    if finished < area.p {
        collective_violation(finished, area.p);
    }
    if let Some(mut o) = obs {
        o.mark(SpanKind::BarrierWait, phase, lane);
        o.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn barrier_synchronizes_and_reuses() {
        for spin in [true, false] {
            let barrier = PhaseBarrier::new(4, spin, false);
            let counter = AtomicUsize::new(0);
            std::thread::scope(|scope| {
                for _ in 0..4 {
                    scope.spawn(|| {
                        for round in 1..=3 {
                            counter.fetch_add(1, Ordering::SeqCst);
                            assert!(!barrier.wait());
                            assert_eq!(counter.load(Ordering::SeqCst), 4 * round);
                            assert!(!barrier.wait());
                        }
                    });
                }
            });
        }
    }

    #[test]
    fn poisoned_barrier_releases_waiters() {
        for spin in [true, false] {
            let barrier = PhaseBarrier::new(2, spin, false);
            std::thread::scope(|scope| {
                let waiter = scope.spawn(|| barrier.wait());
                // Give the waiter time to block before poisoning.
                std::thread::sleep(Duration::from_millis(5));
                barrier.poison();
                assert!(waiter.join().unwrap(), "poison must release the waiter");
            });
            assert!(barrier.wait(), "poisoned barriers release immediately");
        }
    }

    #[test]
    fn tracked_barrier_counts_escalations() {
        let late_partner = |barrier: &PhaseBarrier| {
            std::thread::scope(|scope| {
                scope.spawn(|| {
                    std::thread::sleep(Duration::from_millis(5));
                    barrier.wait()
                });
                barrier.wait();
            });
        };
        // Untracked barriers never count, whatever the contention.
        let quiet = PhaseBarrier::new(2, true, false);
        late_partner(&quiet);
        assert_eq!(quiet.transitions(), (0, 0));
        // A spinning waiter stuck for milliseconds runs out of spins
        // and blocks; a blocking one blocks at once.
        for spin in [true, false] {
            let tracked = PhaseBarrier::new(2, spin, true);
            late_partner(&tracked);
            let (yields, blocks) = tracked.transitions();
            assert!(blocks >= 1, "a millisecond wait must block: {yields}/{blocks}");
        }
    }
}
