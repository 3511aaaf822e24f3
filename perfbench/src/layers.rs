//! The traced run: per-layer host costs and exact counts.
//!
//! Every traced run measures every layer, whatever `--workload` says,
//! so each traced run prints the same metric set. It runs in four
//! parts:
//!
//! 1. all four workloads are set up (with their checked warm-up op);
//! 2. untraced rounds of their ops give the reference op times;
//! 3. the Metrics-level recorder is installed and the same number of
//!    rounds runs again inside benchmark spans; the difference to (2)
//!    is the tracing overhead, and the ops' outputs give the exact
//!    counts;
//! 4. one microbenchmark per layer, each timed around calls into that
//!    crate's public functions.
//!
//! Spans are recorded by the benchmark around calls into the program;
//! nothing inside the program is instrumented.

use std::path::Path;
use std::time::Instant;

use qsm_algorithms::{gen, seq};
use qsm_core::{SimMachine, ThreadMachine};
use qsm_obs::{ObsLevel, Recorder, RunJournal};
use qsm_serve::ServiceConfig;
use qsm_simnet::barrier::measure_barrier;
use qsm_simnet::{
    Cycles, Delivery, FaultConfig, FifoTimeline, Injection, MachineConfig, MsgKind, Network,
    TopologyKind,
};

use crate::reference::{Reference, ServeRef};
use crate::stats::median;
use crate::trace::Tracer;
use crate::workloads::{
    setup, timed_op, FigSuite, ServeOverload, SimAllPairs, SimCounts, Tally, ThreadsPrefix,
    FIGURES, SIM_P, THREADS_N, THREADS_P,
};

/// One reported metric: name, value, unit.
pub type Metric = (String, f64, &'static str);

/// Ops of each workload per round (sized so a round spends a
/// comparable ~0.5–2 s on each).
const ROUND_OPS: [usize; 4] = [1, 10, 5, 1];

/// The four workloads of a traced run, set up once.
struct All {
    sim: SimAllPairs,
    serve: ServeOverload,
    threads: ThreadsPrefix,
    figs: FigSuite,
}

/// Per-workload op times of one part of the run (same order as
/// [`crate::WORKLOADS`]).
type OpTimes = [Vec<f64>; 4];

/// Exact counts taken from the traced ops' outputs.
#[derive(Debug, Clone, PartialEq)]
pub struct Counts {
    pub data_msgs_per_op: u64,
    pub phases_per_op: u64,
    pub total_cycles: f64,
    pub serve_completed_per_op: u64,
    pub serve_retries_per_op: u64,
    pub serve_drops_per_op: u64,
    pub serve_p99_cycles: f64,
}

impl Counts {
    /// The counts of one sim op and one serve op.
    fn of(sim: SimCounts, serve: ServeRef) -> Self {
        Counts {
            data_msgs_per_op: sim.data_msgs,
            phases_per_op: sim.phases,
            total_cycles: sim.total_cycles,
            serve_completed_per_op: serve.completed,
            serve_retries_per_op: serve.retries,
            serve_drops_per_op: serve.drops,
            serve_p99_cycles: serve.p99,
        }
    }

    /// As metrics.
    pub fn metrics(&self) -> Vec<Metric> {
        vec![
            ("count.data_msgs_per_op".into(), self.data_msgs_per_op as f64, "count"),
            ("count.phases_per_op".into(), self.phases_per_op as f64, "count"),
            ("count.serve_completed_per_op".into(), self.serve_completed_per_op as f64, "count"),
            ("count.serve_retries_per_op".into(), self.serve_retries_per_op as f64, "count"),
            ("sim.total_cycles".into(), self.total_cycles, "cycles"),
            ("sim.serve_p99_cycles".into(), self.serve_p99_cycles, "cycles"),
        ]
    }
}

/// Run `rounds` rounds of every workload's ops (or, with `rounds` =
/// 0, rounds until `budget_s` has passed, at least two). Returns the
/// op times, the rounds run, and the last sim and serve outputs'
/// counts.
fn rounds(
    all: &mut All,
    rounds: usize,
    budget_s: f64,
    tally: &mut Tally,
    tr: &mut Tracer,
) -> (OpTimes, usize, Option<Counts>) {
    let start = Instant::now();
    let mut times = OpTimes::default();
    let mut counts: Option<Counts> = None;
    let mut done = 0;
    while if rounds > 0 {
        done < rounds
    } else {
        done < 2 || start.elapsed().as_secs_f64() < budget_s
    } {
        let mut sim = None;
        let mut serve = None;
        for _ in 0..ROUND_OPS[0] {
            let (ms, out) = timed_op(&mut all.sim, tally, tr);
            times[0].push(ms);
            sim = Some(out.counts);
        }
        for _ in 0..ROUND_OPS[1] {
            let (ms, out) = timed_op(&mut all.serve, tally, tr);
            times[1].push(ms);
            serve = Some(out.got);
        }
        for _ in 0..ROUND_OPS[2] {
            times[2].push(timed_op(&mut all.threads, tally, tr).0);
        }
        for _ in 0..ROUND_OPS[3] {
            times[3].push(timed_op(&mut all.figs, tally, tr).0);
        }
        let c = Counts::of(sim.expect("one sim op per round"), serve.expect("serve ops per round"));
        // Every op of a run does the same work; a count that moves
        // between rounds is a failure, not a measurement.
        if let Some(prev) = &counts {
            tally.record(if *prev == c {
                Ok(())
            } else {
                Err(format!("counts moved: {prev:?} -> {c:?}"))
            });
        }
        counts = Some(c);
        done += 1;
    }
    (times, done, counts)
}

/// Median host ns per call of `f`, over `reps` timed calls (after one
/// untimed call).
fn per_call_ns(tr: &mut Tracer, name: &str, reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            tr.span(name, &mut f);
            t.elapsed().as_nanos() as f64
        })
        .collect();
    median(&samples)
}

/// Every ordered pair `(src, dst)`, `src != dst`, of a `p`-node
/// machine, each carrying one 8-byte word — the data phase of prefix
/// sums.
fn all_pairs(cfg: &MachineConfig) -> Vec<Injection> {
    let bytes = 8 + cfg.sw.msg_header_bytes + cfg.sw.item_header_bytes;
    let p = cfg.p;
    (0..p)
        .flat_map(|s| (0..p).filter(move |&d| d != s).map(move |d| (s, d)))
        .map(|(s, d)| Injection::new(s, d, bytes, Cycles::ZERO, MsgKind::PutData))
        .collect()
}

/// Host ns per message of a batch transmit of `msgs` on `cfg`.
fn batch_ns_per_msg(
    tr: &mut Tracer,
    name: &str,
    cfg: &MachineConfig,
    msgs: &[Injection],
    reps: usize,
) -> f64 {
    let mut net = Network::new(cfg.p, cfg.net);
    let mut out: Vec<Delivery> = Vec::with_capacity(msgs.len());
    let ns = per_call_ns(tr, name, reps, || {
        net.reset();
        net.transmit_into(std::hint::black_box(msgs), &mut out);
    });
    ns / msgs.len() as f64
}

/// Replay the serving run's leg stream (each transaction's request,
/// then its reply, with seeded drops resent on the next attempt key)
/// through one-message keyed transmits. Returns host ns per message.
fn keyed_ns_per_msg(tr: &mut Tracer, cfg: &ServiceConfig) -> f64 {
    let sw = cfg.machine.sw;
    let hdr = sw.msg_header_bytes + sw.item_header_bytes;
    let mut txns: Vec<(u64, qsm_serve::Txn)> =
        (0..cfg.offered as u64).map(|i| (i, qsm_serve::arrival::txn(cfg, i))).collect();
    txns.sort_by(|a, b| a.1.arrival.get().total_cmp(&b.1.arrival.get()));
    let mut net = Network::new(cfg.machine.p, cfg.machine.net);
    let mut out: Vec<Delivery> = Vec::with_capacity(1);
    let mut msgs = 0u64;
    let start = Instant::now();
    tr.span("simnet.transmit_into_faulty_keyed", || {
        for (i, t) in &txns {
            let (req, rep) = if t.is_get {
                (
                    Injection::new(t.origin, t.node, hdr, t.arrival, MsgKind::GetRequest),
                    Injection::new(
                        t.node,
                        t.origin,
                        hdr + cfg.value_bytes,
                        t.arrival,
                        MsgKind::GetReply,
                    ),
                )
            } else {
                (
                    Injection::new(
                        t.origin,
                        t.node,
                        hdr + cfg.value_bytes,
                        t.arrival,
                        MsgKind::PutData,
                    )
                    .with_bank(t.bank),
                    Injection::new(
                        t.node,
                        t.origin,
                        sw.msg_header_bytes,
                        t.arrival,
                        MsgKind::Other,
                    ),
                )
            };
            let mut ready = t.arrival;
            for (leg, mut msg) in [req, rep].into_iter().enumerate() {
                let mut attempt = 1;
                loop {
                    msg.ready = ready;
                    net.transmit_into_faulty_keyed(
                        &[msg],
                        &mut out,
                        &[FaultConfig::retry_key(2 * i + leg as u64, attempt)],
                    );
                    msgs += 1;
                    if !net.last_dropped()[0] {
                        ready = out[0].visible;
                        break;
                    }
                    ready = out[0].depart;
                    attempt += 1;
                }
            }
        }
    });
    start.elapsed().as_nanos() as f64 / msgs as f64
}

/// Host ns per `FifoTimeline::serve` over 1024 servers, with
/// pseudo-random servers and ready times.
fn timeline_ns_per_serve(tr: &mut Tracer) -> f64 {
    const SERVES: u64 = 2_000_000;
    let mut tl = FifoTimeline::new(1024);
    per_call_ns(tr, "simnet.FifoTimeline::serve", 5, || {
        tl.reset();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for k in 0..SERVES {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let s = (x % 1024) as usize;
            std::hint::black_box(tl.serve(s, Cycles::new(k as f64), Cycles::new(40.0)));
        }
    }) / SERVES as f64
}

/// Host ms of one `SimMachine::run` that performs `syncs` empty
/// phases at `p` (median of `reps`).
fn sim_syncs_ms(tr: &mut Tracer, p: usize, syncs: usize, reps: usize) -> f64 {
    let m = SimMachine::new(MachineConfig::paper_default(p));
    let name = format!("core.SimMachine::run.empty_p{p}_x{syncs}");
    per_call_ns(tr, &name, reps, || {
        m.run(|ctx| {
            for _ in 0..syncs {
                ctx.sync();
            }
        });
    }) / 1e6
}

/// Host ns of one `ThreadMachine::run` performing `syncs` empty
/// phases at p = 2 (median of `reps`).
fn spmd_syncs_ns(tr: &mut Tracer, syncs: usize, reps: usize) -> f64 {
    let m = ThreadMachine::new(THREADS_P);
    per_call_ns(tr, &format!("core.ThreadMachine::run.empty_x{syncs}"), reps, || {
        m.run(|ctx| {
            for _ in 0..syncs {
                ctx.sync();
            }
        });
    })
}

/// Median host µs of one `RunJournal::append`, fsync on or off.
fn journal_append_us(tr: &mut Tracer, dir: &Path, sync: bool, appends: usize) -> f64 {
    let path = dir.join(format!("journal-{}-{sync}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let journal = RunJournal::open_with(&path, sync).expect("open the scratch journal");
    let record = r#"{"kind":"done","figure":"fig1","point":17,"result":["1.5","2.25"]}"#;
    let name = if sync { "obs.RunJournal::append.sync" } else { "obs.RunJournal::append.nosync" };
    let us = per_call_ns(tr, name, appends, || journal.append(record).expect("append")) / 1e3;
    drop(journal);
    let _ = std::fs::remove_file(&path);
    us
}

/// The traced run; see the module docs.
pub fn traced_run(
    seed: u64,
    seconds: f64,
    reference: &Reference,
    scratch: &Path,
) -> (Vec<Metric>, Tally) {
    let mut tally = Tally::default();
    let mut all = All {
        sim: setup(seed, reference, &mut tally).0,
        serve: setup(seed, reference, &mut tally).0,
        threads: setup(seed, reference, &mut tally).0,
        figs: setup(seed, reference, &mut tally).0,
    };

    let (plain, n_rounds, _) = rounds(&mut all, 0, 0.35 * seconds, &mut tally, &mut Tracer::off());
    assert!(
        qsm_core::obs::install(Recorder::new(ObsLevel::Metrics, 400e6)),
        "recorder installed once"
    );
    let mut tr = Tracer::on();
    let (traced, _, counts) = rounds(&mut all, n_rounds, 0.0, &mut tally, &mut tr);
    let counts = counts.expect("at least one traced round");

    let mut m: Vec<Metric> = Vec::new();
    let mut put = |name: &str, v: f64, unit: &'static str| m.push((name.to_string(), v, unit));

    // qsm-simnet
    let sim_cfg = MachineConfig::paper_default(SIM_P);
    let pairs = all_pairs(&sim_cfg);
    let batch =
        batch_ns_per_msg(&mut tr, "simnet.transmit_into.allpairs_p1024", &sim_cfg, &pairs, 5);
    drop(pairs);
    put("simnet.batch_ns_per_msg", batch, "ns");
    let keyed = keyed_ns_per_msg(&mut tr, &all.serve.cfg);
    put("simnet.keyed_ns_per_msg", keyed, "ns");
    let torus = MachineConfig::paper_default(64).with_topology(TopologyKind::torus(64));
    put(
        "simnet.routed_ns_per_msg",
        batch_ns_per_msg(&mut tr, "simnet.transmit_into.torus_p64", &torus, &all_pairs(&torus), 50),
        "ns",
    );
    put("simnet.timeline_ns_per_serve", timeline_ns_per_serve(&mut tr), "ns");
    let mut net = Network::new(SIM_P, sim_cfg.net);
    let barrier = per_call_ns(&mut tr, "simnet.measure_barrier", 20, || {
        std::hint::black_box(measure_barrier(&mut net, &sim_cfg.sw));
    });
    put("simnet.barrier_us_p1024", barrier / 1e3, "us");

    // qsm-core
    let fixed_ms = sim_syncs_ms(&mut tr, SIM_P, 1, 3);
    let extra = 3;
    let phase_ms = (sim_syncs_ms(&mut tr, SIM_P, 1 + extra, 3) - fixed_ms) / extra as f64;
    put("core.sim_run_fixed_ms_p1024", fixed_ms, "ms");
    put("core.sim_run_fixed_us_p16", sim_syncs_ms(&mut tr, 16, 1, 30) * 1e3, "us");
    put("core.sim_empty_phase_ms_p1024", phase_ms, "ms");
    // A sim op = one run's fixed cost (which includes its first phase)
    // + the remaining phases' plan exchanges + the data messages.
    let data_ms = median(&plain[0]) - fixed_ms - (counts.phases_per_op - 1) as f64 * phase_ms;
    put("core.sim_ns_per_data_msg_p1024", data_ms * 1e6 / counts.data_msgs_per_op as f64, "ns");
    let spmd_fixed = spmd_syncs_ns(&mut tr, 1, 200);
    let rounds_n = 2000;
    let spmd_barrier = (spmd_syncs_ns(&mut tr, 1 + rounds_n, 5) - spmd_fixed) / rounds_n as f64;
    put("core.spmd_barrier_ns_p2", spmd_barrier, "ns");
    put("core.spmd_run_fixed_us_p2", spmd_fixed / 1e3, "us");

    // qsm-algorithms
    let input = gen::random_u64s(THREADS_N, seed);
    let seq_ns = per_call_ns(&mut tr, "algorithms.seq::prefix_sums", 5, || {
        std::hint::black_box(seq::prefix_sums(std::hint::black_box(&input)));
    });
    drop(input);
    put("algorithms.seq_prefix_ns_per_elem", seq_ns / THREADS_N as f64, "ns");
    let gen_ns = per_call_ns(&mut tr, "algorithms.gen::random_u64s", 3, || {
        std::hint::black_box(gen::random_u64s(THREADS_N, seed));
    });
    put("algorithms.gen_ns_per_elem", gen_ns / THREADS_N as f64, "ns");

    // qsm-serve
    let serve_ms = median(tr.durs_ns("serve.run")) / 1e6;
    let completed = counts.serve_completed_per_op as f64;
    let ns_per_txn = serve_ms * 1e6 / completed;
    let msgs_per_txn =
        (2 * counts.serve_completed_per_op + counts.serve_drops_per_op) as f64 / completed;
    put("serve.ns_per_txn", ns_per_txn, "ns");
    put("serve.self_ns_per_txn", ns_per_txn - keyed * msgs_per_txn, "ns");
    let predict_ns = per_call_ns(&mut tr, "serve.predict.x1000", 5, || {
        for _ in 0..1000 {
            std::hint::black_box(qsm_serve::predict(std::hint::black_box(&all.serve.cfg)));
        }
    });
    put("serve.predict_us", predict_ns / 1000.0 / 1e3, "us");

    // qsm-obs
    put("obs.journal_append_us.sync", journal_append_us(&mut tr, scratch, true, 30), "us");
    put("obs.journal_append_us.nosync", journal_append_us(&mut tr, scratch, false, 2000), "us");
    for (w, (plain, traced)) in crate::WORKLOADS.iter().zip(plain.iter().zip(&traced)) {
        put(
            &format!("obs.trace_overhead_pct.{w}"),
            (median(traced) / median(plain) - 1.0) * 100.0,
            "%",
        );
    }

    // qsm-bench
    for (id, _) in FIGURES {
        put(
            &format!("bench.fig_ms.{id}"),
            median(tr.durs_ns(&format!("bench.fig.{id}"))) / 1e6,
            "ms",
        );
    }

    m.extend(counts.metrics());
    print_spans(&tr);
    (m, tally)
}

/// Print each span name's count, median and total time.
fn print_spans(tr: &Tracer) {
    println!("{:<48} {:>6} {:>14} {:>14}", "span", "count", "median_ms", "total_ms");
    for (name, durs) in tr.spans() {
        println!(
            "{name:<48} {:>6} {:>14.4} {:>14.3}",
            durs.len(),
            median(durs) / 1e6,
            durs.iter().sum::<f64>() / 1e6
        );
    }
}

/// Only the exact counts of a traced run (the `count.*` and `sim.*`
/// metrics): one op each of the sim and serve workloads.
#[cfg(test)]
fn counts_only(seed: u64, reference: &Reference) -> (Counts, Tally) {
    let mut tally = Tally::default();
    let mut sim: SimAllPairs = setup(seed, reference, &mut tally).0;
    let mut serve: ServeOverload = setup(seed, reference, &mut tally).0;
    let mut tr = Tracer::on();
    let s = timed_op(&mut sim, &mut tally, &mut tr).1.counts;
    let v = timed_op(&mut serve, &mut tally, &mut tr).1.got;
    (Counts::of(s, v), tally)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_traced_runs_give_identical_counts() {
        let reference = Reference::committed();
        let (a, ta) = counts_only(5, &reference);
        let (b, tb) = counts_only(5, &reference);
        assert_eq!((ta.failed, tb.failed), (0, 0), "{:?} {:?}", ta.first_error, tb.first_error);
        let bits = |c: &Counts| -> Vec<u64> { c.metrics().iter().map(|m| m.1.to_bits()).collect() };
        assert_eq!(bits(&a), bits(&b));
        assert_eq!(a.data_msgs_per_op, (SIM_P * (SIM_P - 1)) as u64);
    }

    #[test]
    fn all_pairs_batch_has_p_times_p_minus_one_messages() {
        let cfg = MachineConfig::paper_default(8);
        let msgs = all_pairs(&cfg);
        assert_eq!(msgs.len(), 56);
        assert!(msgs.iter().all(|m| m.src != m.dst));
    }
}
