//! The backend abstraction: one engine, many machines.
//!
//! Every QSM backend is a [`Machine`]: a small configuration value
//! that knows how many processors it has, how to build the
//! [`PhaseTimer`] that prices each phase, and how to assemble the
//! final [`CostReport`]. The run pipeline itself —
//! **plan → exchange → price → record** — lives once in
//! `crate::engine`, and every backend executes it the same way: `p`
//! jobs on the resident SPMD worker pool, synchronizing through one
//! lock-free exchange. So the simulated and native machines produce
//! the same [`PhaseRecord`] stream, the same profile, and feed the
//! same observability recorder; only the timer differs. That is
//! the paper's methodology in code: identical programs, identical
//! measured quantities, different machines.
//!
//! Backends today: [`SimMachine`] (simulated cycles on the
//! `qsm-simnet` model) and [`ThreadMachine`] (host threads,
//! wall-clock nanoseconds). [`AnyMachine`] wraps both behind one
//! runtime-selectable value (e.g. from `QSM_BACKEND`).

use std::time::Instant;

use qsm_obs::Recorder;
use qsm_simnet::Cycles;

use crate::accounting::CostReport;
use crate::ctx::Ctx;
use crate::driver::{CommMatrix, PhaseRecord, PhaseTiming};
use crate::sim_runtime::SimMachine;
use crate::sim_timer::SimTimer;
use crate::thread_runtime::{ThreadMachine, WallTimer};
use qsm_models::ProgramProfile;

/// Prices one phase of a run: the **price** stage of the pipeline.
///
/// The driver calls [`PhaseTimer::price`] once per `sync()`, after
/// the exchange has been applied. A backend decides what a phase
/// *costs* here — the simulated machine replays the exchange on the
/// `qsm-simnet` network model, the native machine reads the host
/// clock — and everything downstream (the [`PhaseRecord`] stream,
/// the [`CostReport`], the observability spans) is backend-agnostic.
pub trait PhaseTimer: Send {
    /// Price one phase. `charged[i]` is processor `i`'s explicitly
    /// charged local-operation count, `matrix` the metered traffic
    /// the exchange moved, and `arrivals[i]` the host instant at
    /// which processor `i` entered `sync()` (wall-clock backends
    /// split compute from communication with it; simulated backends
    /// ignore it). `arrivals` may be empty in unit-test harnesses
    /// that drive a timer directly.
    fn price(&mut self, charged: &[u64], matrix: &CommMatrix, arrivals: &[Instant]) -> PhaseTiming;

    /// `(resends, lost transmissions)` of the phase most recently
    /// priced — the delivery protocol's work under fault injection.
    /// Backends without fault injection report zeros.
    fn fault_counts(&self) -> (u64, u64) {
        (0, 0)
    }

    /// The destination-bank model this backend's machine is
    /// configured with, if any. The driver queries it once per run to
    /// switch on per-bank traffic metering (observed bank-κ); `None`
    /// (the default) keeps the bank layer entirely off.
    fn bank_model(&self) -> Option<qsm_simnet::BankModel> {
        None
    }

    /// Summed destination-bank queuing of the phase most recently
    /// priced (zero without a bank model, and on backends that do
    /// not simulate banks).
    fn bank_wait(&self) -> Cycles {
        Cycles::ZERO
    }

    /// Number of directed fabric links the backend's machine routes
    /// messages over — zero on the flat contention-free wire and on
    /// backends that do not simulate the fabric. The driver queries
    /// it once per run to switch on per-link metrics, mirroring
    /// [`PhaseTimer::bank_model`].
    fn link_count(&self) -> usize {
        0
    }

    /// Summed fabric-link queuing of the phase most recently priced
    /// (zero on the flat wire, and on backends that do not simulate
    /// the fabric).
    fn link_wait(&self) -> Cycles {
        Cycles::ZERO
    }

    /// Busy fraction of the most-utilized fabric link over the phase
    /// most recently priced (zero on the flat wire, and on backends
    /// that do not simulate the fabric).
    fn link_util(&self) -> f64 {
        0.0
    }

    /// Opt in to SPMD per-worker span capture. The engine calls this
    /// once per SPMD run when full-level observability is on; a timer
    /// that returns the run's epoch instant takes over the timeline
    /// (workers then emit their own compute / barrier / serve / apply
    /// spans against it, and the timer must stop emitting its
    /// coarser per-processor spans to avoid double-covering lanes).
    /// The default — and the simulated backend's behavior — is `None`:
    /// no worker-side capture.
    fn spmd_span_epoch(&mut self) -> Option<Instant> {
        None
    }
}

/// A QSM execution backend.
///
/// Implementors are cheap configuration values; [`Machine::run`]
/// executes a program — an ordinary closure over a [`Ctx`] — on `p`
/// workers through the shared engine. See the crate-level example
/// for a program running unmodified on both backends.
pub trait Machine {
    /// The phase-pricing strategy this backend plugs into the engine.
    /// (`'static` so the engine can hold it as a trait object across
    /// the run; timers are configuration + counters, never borrows.)
    type Timer: PhaseTimer + 'static;

    /// Number of processors.
    fn nprocs(&self) -> usize;

    /// Seed for the per-processor deterministic RNGs.
    fn seed(&self) -> u64;

    /// Whether the driver panics on same-phase read/write overlap.
    fn check_conflicts(&self) -> bool;

    /// Short stable name for harness output (`"sim"`, `"threads"`).
    fn backend_name(&self) -> &'static str;

    /// Time unit of measured [`PhaseTiming`] values (`"cycles"` for
    /// the simulated machine, `"ns"` for wall-clock backends).
    fn time_unit(&self) -> &'static str;

    /// Build the timer for one run, emitting into `rec`.
    fn make_timer(&self, rec: Recorder) -> Self::Timer;

    /// Assemble the run's cost report from its phase records.
    fn make_report(&self, phases: &[PhaseRecord]) -> CostReport;

    /// Run `program` on every processor and price the run.
    fn run<R, F>(&self, program: F) -> RunResult<R>
    where
        R: Send,
        F: Fn(&mut Ctx) -> R + Send + Sync,
        Self: Sized,
    {
        crate::engine::run(self, program)
    }
}

/// Outcome of one program run, identical in shape on every backend.
///
/// Timing values are in the backend's [`Machine::time_unit`]:
/// simulated cycles on [`SimMachine`], host nanoseconds on
/// [`ThreadMachine`].
#[derive(Debug)]
pub struct RunResult<R> {
    /// Each processor's return value, indexed by processor id.
    pub outputs: Vec<R>,
    /// One record per phase, in execution order.
    pub phases: Vec<PhaseRecord>,
    /// The model-facing profile (per-phase maxima).
    pub profile: ProgramProfile,
    /// Measured and predicted cost summary.
    pub report: CostReport,
}

impl<R> RunResult<R> {
    /// Total measured time.
    pub fn total(&self) -> Cycles {
        self.report.measured_total
    }

    /// Total measured communication time (time inside `sync()`).
    pub fn comm(&self) -> Cycles {
        self.report.measured_comm
    }

    /// Total measured local-compute time.
    pub fn compute(&self) -> Cycles {
        self.report.measured_compute
    }

    /// Number of phases executed.
    pub fn num_phases(&self) -> usize {
        self.phases.len()
    }

    /// Render a per-phase breakdown: measured timing plus the
    /// profile quantities each cost model charges for.
    pub fn phase_table(&self) -> String {
        let mut out = String::from(
            "phase     elapsed     compute        comm    m_op   m_rw  kappa   msgs  payload_B\n",
        );
        for (k, r) in self.phases.iter().enumerate() {
            out.push_str(&format!(
                "{k:>5} {:>11.0} {:>11.0} {:>11.0} {:>7} {:>6} {:>6} {:>6} {:>10}\n",
                r.timing.elapsed.get(),
                r.timing.compute.get(),
                r.timing.comm.get(),
                r.profile.m_op,
                r.profile.m_rw,
                r.profile.kappa,
                r.profile.msgs,
                r.payload_bytes,
            ));
        }
        out
    }
}

/// A backend chosen at runtime (e.g. from `QSM_BACKEND`).
///
/// Wraps the statically-typed machines behind one value so harnesses
/// can select a backend from the environment while staying on the
/// generic [`Machine`] pipeline.
#[derive(Debug, Clone, Copy)]
pub enum AnyMachine {
    /// The simulated machine ([`SimMachine`]).
    Sim(SimMachine),
    /// The native host-thread machine ([`ThreadMachine`]).
    Threads(ThreadMachine),
}

impl AnyMachine {
    /// Replace the RNG seed on the wrapped machine.
    pub fn with_seed(self, seed: u64) -> Self {
        match self {
            AnyMachine::Sim(m) => AnyMachine::Sim(m.with_seed(seed)),
            AnyMachine::Threads(m) => AnyMachine::Threads(m.with_seed(seed)),
        }
    }

    /// Disable the read/write-overlap phase check on the wrapped
    /// machine (on by default).
    pub fn with_conflict_check(self, check: bool) -> Self {
        match self {
            AnyMachine::Sim(m) => AnyMachine::Sim(m.with_conflict_check(check)),
            AnyMachine::Threads(m) => AnyMachine::Threads(m.with_conflict_check(check)),
        }
    }
}

impl From<SimMachine> for AnyMachine {
    fn from(m: SimMachine) -> Self {
        AnyMachine::Sim(m)
    }
}

impl From<ThreadMachine> for AnyMachine {
    fn from(m: ThreadMachine) -> Self {
        AnyMachine::Threads(m)
    }
}

/// The [`AnyMachine`] timer: delegates to the wrapped backend's.
pub struct AnyTimer(AnyTimerInner);

enum AnyTimerInner {
    // Boxed: the simulated timer carries the whole network state and
    // dwarfs the wall-clock one; one allocation per run is free.
    Sim(Box<SimTimer>),
    Wall(WallTimer),
}

impl PhaseTimer for AnyTimer {
    fn price(&mut self, charged: &[u64], matrix: &CommMatrix, arrivals: &[Instant]) -> PhaseTiming {
        match &mut self.0 {
            AnyTimerInner::Sim(t) => t.price(charged, matrix, arrivals),
            AnyTimerInner::Wall(t) => t.price(charged, matrix, arrivals),
        }
    }

    fn fault_counts(&self) -> (u64, u64) {
        match &self.0 {
            AnyTimerInner::Sim(t) => t.fault_counts(),
            AnyTimerInner::Wall(t) => t.fault_counts(),
        }
    }

    fn bank_model(&self) -> Option<qsm_simnet::BankModel> {
        match &self.0 {
            AnyTimerInner::Sim(t) => t.bank_model(),
            AnyTimerInner::Wall(t) => t.bank_model(),
        }
    }

    fn bank_wait(&self) -> Cycles {
        match &self.0 {
            AnyTimerInner::Sim(t) => t.bank_wait(),
            AnyTimerInner::Wall(t) => t.bank_wait(),
        }
    }

    fn link_count(&self) -> usize {
        match &self.0 {
            AnyTimerInner::Sim(t) => t.link_count(),
            AnyTimerInner::Wall(t) => t.link_count(),
        }
    }

    fn link_wait(&self) -> Cycles {
        match &self.0 {
            AnyTimerInner::Sim(t) => t.link_wait(),
            AnyTimerInner::Wall(t) => t.link_wait(),
        }
    }

    fn link_util(&self) -> f64 {
        match &self.0 {
            AnyTimerInner::Sim(t) => t.link_util(),
            AnyTimerInner::Wall(t) => t.link_util(),
        }
    }

    fn spmd_span_epoch(&mut self) -> Option<Instant> {
        match &mut self.0 {
            AnyTimerInner::Sim(t) => t.spmd_span_epoch(),
            AnyTimerInner::Wall(t) => t.spmd_span_epoch(),
        }
    }
}

impl Machine for AnyMachine {
    type Timer = AnyTimer;

    fn nprocs(&self) -> usize {
        match self {
            AnyMachine::Sim(m) => m.nprocs(),
            AnyMachine::Threads(m) => m.nprocs(),
        }
    }

    fn seed(&self) -> u64 {
        match self {
            AnyMachine::Sim(m) => m.seed(),
            AnyMachine::Threads(m) => m.seed(),
        }
    }

    fn check_conflicts(&self) -> bool {
        match self {
            AnyMachine::Sim(m) => m.check_conflicts(),
            AnyMachine::Threads(m) => m.check_conflicts(),
        }
    }

    fn backend_name(&self) -> &'static str {
        match self {
            AnyMachine::Sim(m) => m.backend_name(),
            AnyMachine::Threads(m) => m.backend_name(),
        }
    }

    fn time_unit(&self) -> &'static str {
        match self {
            AnyMachine::Sim(m) => m.time_unit(),
            AnyMachine::Threads(m) => m.time_unit(),
        }
    }

    fn make_timer(&self, rec: Recorder) -> AnyTimer {
        match self {
            AnyMachine::Sim(m) => AnyTimer(AnyTimerInner::Sim(Box::new(m.make_timer(rec)))),
            AnyMachine::Threads(m) => AnyTimer(AnyTimerInner::Wall(m.make_timer(rec))),
        }
    }

    fn make_report(&self, phases: &[PhaseRecord]) -> CostReport {
        match self {
            AnyMachine::Sim(m) => m.make_report(phases),
            AnyMachine::Threads(m) => m.make_report(phases),
        }
    }
}
