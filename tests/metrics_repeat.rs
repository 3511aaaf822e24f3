//! A `Metrics`-level dump must not depend on process history: the
//! same threads-backend program run twice in one process yields
//! byte-identical dumps, although the first run spawns the resident
//! worker pool and the second reuses it.
//!
//! This file contains exactly one `#[test]` on purpose: it installs
//! the process-global recorder, and a sibling test's runs would land
//! in its dumps.

use qsm::core::obs::{self, ObsLevel, Recorder};
use qsm::core::{Layout, ThreadMachine};

#[test]
fn repeated_threads_runs_dump_identical_metrics() {
    assert!(obs::install(Recorder::new(ObsLevel::Metrics, 400e6)));
    let rec = obs::recorder();
    let run_once = || {
        let run = ThreadMachine::new(8).run(|ctx| {
            let p = ctx.nprocs();
            let me = ctx.proc_id();
            let arr = ctx.register::<u64>("repeat.ring", p, Layout::Block);
            ctx.sync();
            ctx.put(&arr, (me + 1) % p, &[me as u64]);
            ctx.sync();
            let t = ctx.get(&arr, me, 1);
            ctx.sync();
            ctx.take(t)[0]
        });
        (run.outputs, rec.take_metrics_json().expect("recorder is installed"))
    };
    let (first_out, first) = run_once();
    let (second_out, second) = run_once();
    assert_eq!(first_out, second_out);
    assert!(first.contains("\"spmd_runs\""), "the dump covers the engine: {first}");
    assert_eq!(first, second, "a repeat run must dump byte-identical metrics");
}
