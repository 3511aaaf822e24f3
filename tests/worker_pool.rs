//! Worker-pool reuse: the threads backend must run on the resident
//! SPMD pool, not spawn threads per run (let alone per phase).
//!
//! This lives in its own integration-test binary because the pool's
//! spawn counter is process-global: a concurrently running test that
//! also exercises the threads backend would perturb the deltas.

use qsm::core::{pool, Layout, ThreadMachine};

/// A little program with several phases of real traffic.
fn rotate_phases(machine: &ThreadMachine, rounds: usize) -> Vec<u64> {
    machine
        .run(|ctx| {
            let p = ctx.nprocs();
            let me = ctx.proc_id();
            let arr = ctx.register::<u64>("pool.ring", p, Layout::Block);
            ctx.sync();
            let mut v = me as u64;
            for _ in 0..rounds {
                ctx.put(&arr, (me + 1) % p, &[v]);
                ctx.sync();
                let t = ctx.get(&arr, me, 1);
                ctx.sync();
                v = ctx.take(t)[0] + 1;
            }
            v
        })
        .outputs
}

#[test]
fn second_run_spawns_no_threads() {
    let m = ThreadMachine::new(8);
    let first = rotate_phases(&m, 3);
    let spawned_after_first = pool::spawned_workers();
    assert_eq!(
        spawned_after_first, 7,
        "first run must populate the pool: p - 1 workers, processor 0 runs on the caller"
    );
    let second = rotate_phases(&m, 3);
    assert_eq!(
        pool::spawned_workers(),
        spawned_after_first,
        "a second run on warm resident workers must spawn nothing"
    );
    assert_eq!(first, second, "pool reuse must not change results");

    // Many phases at heavy oversubscription: still zero spawns once
    // the pool covers p (per-phase spawning would show up here).
    let wide = ThreadMachine::new(64);
    let _ = rotate_phases(&wide, 2);
    let spawned_after_wide = pool::spawned_workers();
    let many = rotate_phases(&wide, 16);
    assert_eq!(
        pool::spawned_workers(),
        spawned_after_wide,
        "phases must not spawn threads: the exchange is a rendezvous, not a fork"
    );
    assert_eq!(many.len(), 64);
}
