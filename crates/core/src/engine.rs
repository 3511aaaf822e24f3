//! The shared run engine: one pipeline for every backend.
//!
//! [`run`] is the only place in the workspace that launches QSM
//! workers and drives the phase loop. A [`Machine`] contributes just
//! its configuration and its [`PhaseTimer`]; the driver's
//! plan/price/record stages, the ambient observability hookup, and
//! the final profile/report assembly are identical across backends,
//! which is what makes cross-backend comparisons of the resulting
//! [`RunResult`]s meaningful.
//!
//! There is one execution path. Every backend's `p` processors run as
//! jobs on the resident worker pool (`crate::pool`) and synchronize
//! through the lock-free exchange area (`crate::spmd`); processor 0
//! runs on the calling thread and doubles as the phase leader. There
//! is no driver thread, and a warm pool spawns no thread per run.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Mutex;

use qsm_models::ProgramProfile;

use crate::ctx::Ctx;
use crate::driver::{Driver, PhaseRecord};
use crate::machine::{Machine, PhaseTimer, RunResult};

/// Run `program` on every processor of `machine` and price the run:
/// one pool job per processor, with worker 0 as the phase leader
/// running the driver's plan/price/record stages inline.
pub(crate) fn run<M, R, F>(machine: &M, program: F) -> RunResult<R>
where
    M: Machine,
    R: Send,
    F: Fn(&mut Ctx) -> R + Send + Sync,
{
    let p = machine.nprocs();
    let rec = crate::obs::recorder();
    let mut driver = Driver::new(p, machine.check_conflicts(), rec.clone());
    let mut timer: Box<dyn PhaseTimer> = Box::new(machine.make_timer(rec.clone()));
    driver.begin_run(timer.as_ref());
    // Full-level capture: a timer that opts in (the wall-clock one)
    // hands over its epoch and the workers emit their own per-lane
    // spans against it (compute / barrier legs / serve / apply plus
    // the leader's plan and price stages).
    let obs = if rec.is_full() {
        timer.spmd_span_epoch().map(|epoch| {
            rec.set_nprocs(p);
            crate::spmd::RunObs { rec: rec.clone(), epoch }
        })
    } else {
        None
    };
    let area = crate::spmd::ExchangeArea::new(p, driver, timer, obs);
    let outputs: Vec<Mutex<Option<R>>> = (0..p).map(|_| Mutex::new(None)).collect();
    let seed = machine.seed();
    let program = &program;

    {
        let area = &area;
        let outputs = &outputs;
        let job = move |proc: usize| {
            // The context lives OUTSIDE catch_unwind: peers read its
            // store through the exchange area until the exit
            // rendezvous, so unwinding must not drop it early.
            let mut ctx = crate::spmd::make_ctx(proc, p, seed, area);
            let result = catch_unwind(AssertUnwindSafe(|| {
                let out = program(&mut ctx);
                crate::spmd::epilogue(&mut ctx);
                out
            }));
            match result {
                Ok(out) => {
                    *outputs[proc].lock().unwrap_or_else(|e| e.into_inner()) = Some(out);
                }
                Err(payload) => {
                    // Release everyone blocked on the barrier; keep
                    // only originating payloads (peers unwinding on
                    // the poison carry the internal abort marker).
                    area.poison();
                    if !payload.is::<crate::spmd::SpmdAborted>() {
                        area.stash_panic(proc, payload);
                    }
                }
            }
            crate::spmd::exit_rendezvous(area);
        };
        let stats = crate::pool::execute(p, &job);

        if rec.is_enabled() {
            rec.add("spmd_runs", 1);
            if crate::pool::pinning_requested() {
                rec.add("pool_pinned_runs", 1);
            }
        }
        if rec.is_full() {
            // Pool placement depends on process history (the first
            // run spawns the residents) and on how concurrent runs
            // interleave (a run that finds the pool busy overflows),
            // and barrier escalations on scheduling, so they are
            // full-level only (single-run captures).
            rec.add("pool_spawns", stats.spawned);
            rec.add("pool_resident_jobs", stats.resident as u64);
            if stats.overflow > 0 {
                rec.add("pool_overflow_jobs", stats.overflow as u64);
            }
            let (yields, blocks) = area.barrier_transitions();
            rec.add("spmd_barrier_yield_transitions", yields);
            rec.add("spmd_barrier_block_transitions", blocks);
        }
    }
    let (phases, panic) = area.into_results();
    if let Some(payload) = panic {
        resume_unwind(payload);
    }
    let outputs = outputs
        .into_iter()
        .map(|m| {
            m.into_inner().unwrap_or_else(|e| e.into_inner()).expect("worker produced no output")
        })
        .collect();
    assemble(machine, outputs, phases)
}

/// Backend-agnostic tail of every run: profile + cost report.
fn assemble<M: Machine, R>(machine: &M, outputs: Vec<R>, phases: Vec<PhaseRecord>) -> RunResult<R> {
    let profile = ProgramProfile { phases: phases.iter().map(|r| r.profile).collect() };
    // Fold fault totals into the calling thread's tally (always runs
    // on the thread that called `Machine::run`, which is what lets
    // the bench sweep scope per-point deltas).
    let (retries, drops) =
        phases.iter().fold((0u64, 0u64), |(r, d), ph| (r + ph.retries, d + ph.dropped_msgs));
    crate::tally::note_run(retries, drops);
    let report = machine.make_report(&phases);
    RunResult { outputs, phases, profile, report }
}
