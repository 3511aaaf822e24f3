//! The four workloads, their output checks, and the closed-loop
//! measuring loop.
//!
//! Each op is one call into the program from this (the only client)
//! thread; the next op starts when the previous one has returned and
//! its output has been checked. Why each workload exists is in
//! `README.md`.

use std::time::Instant;

use qsm_algorithms::{gen, prefix, seq};
use qsm_bench::figures::{self, ext_service};
use qsm_bench::{Report, RunCfg};
use qsm_core::{SimMachine, ThreadMachine};
use qsm_obs::{ObsLevel, Recorder};
use qsm_serve::{ServiceConfig, ServiceOutcome};
use qsm_simnet::{FaultConfig, MachineConfig};

use crate::reference::{fnv64, Reference, ServeRef};
use crate::trace::Tracer;

/// Processors of the large-p sim workload.
pub const SIM_P: usize = 1024;
/// Prefix-sums input size of the large-p sim workload (n = 4p).
pub const SIM_N: usize = 4 * SIM_P;
/// Worker threads of the threads workload (the host's core count).
pub const THREADS_P: usize = 2;
/// Prefix-sums input size of the threads workload.
pub const THREADS_N: usize = 10_000_000;
/// Serving arrival window in cycles.
pub const SERVE_WINDOW: f64 = (1u64 << 22) as f64;
/// Offered load as a multiple of the model's predicted capacity.
pub const SERVE_LOAD: f64 = 2.0;
/// Seeded drop probability on every serving leg, so retries run.
pub const SERVE_DROP: f64 = 0.01;
/// Serving inputs are built from `seed % SERVE_SEEDS`, so every seed
/// has a committed reference line in `reference.txt`.
pub const SERVE_SEEDS: u64 = 128;

/// A figure's id and its `run` function.
pub type Figure = (&'static str, fn(&RunCfg) -> Report);

/// Every deterministic fast-mode figure, in `all`'s order (`fig7`,
/// whose CSV holds host wall-clock columns, is left out).
pub const FIGURES: [Figure; 16] = [
    ("table3", figures::table3::run),
    ("fig1", figures::fig1::run),
    ("fig2", figures::fig2::run),
    ("fig3", figures::fig3::run),
    ("fig4", figures::fig4::run),
    ("fig5", figures::fig5::run),
    ("fig6", figures::fig6::run),
    ("table4", figures::table4::run),
    ("ablations", figures::ablations::run),
    ("ext_fabric", figures::ext_fabric::run),
    ("ext_straggler", figures::ext_straggler::run),
    ("ext_hotspot", figures::ext_hotspot::run),
    ("ext_faults", figures::ext_faults::run),
    ("ext_banks", figures::ext_banks::run),
    ("ext_topology", figures::ext_topology::run),
    ("ext_service", figures::ext_service::run),
];

/// The figure configuration `QSM_FAST=1` gives the `all` binary.
pub fn fast_cfg() -> RunCfg {
    RunCfg { p: 16, reps: 1, fast: true }
}

/// One benchmark workload: fixed inputs built at construction, a
/// timed op, and an untimed check of the op's output.
pub trait Workload: Sized {
    /// What one op returns for checking.
    type Out;
    /// Generate inputs and build the machine.
    fn new(seed: u64, reference: &Reference) -> Self;
    /// One op: a single call into the program.
    fn op(&mut self, tr: &mut Tracer) -> Self::Out;
    /// Compare an op's output against the reference.
    fn check(&self, out: &Self::Out) -> Result<(), String>;
}

/// Ops attempted and failed, with the first failure's reason.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub first_error: Option<String>,
}

impl Tally {
    /// Count one op by its check result.
    pub fn record(&mut self, check: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = check {
            self.failed += 1;
            self.first_error.get_or_insert(e);
        }
    }
}

/// Build a workload and run its checked warm-up op; returns the
/// workload and the set-up time in seconds.
pub fn setup<W: Workload>(seed: u64, reference: &Reference, tally: &mut Tally) -> (W, f64) {
    let t = Instant::now();
    let mut w = W::new(seed, reference);
    let out = w.op(&mut Tracer::off());
    tally.record(w.check(&out));
    (w, t.elapsed().as_secs_f64())
}

/// Ops at least, so the tail has ten samples beyond it.
pub const MIN_OPS: usize = crate::stats::TAIL_BEYOND + 1;
/// Measuring stops here regardless, so a run ends in bounded time.
pub const MAX_MEASURE_S: f64 = 120.0;

/// Run checked ops for `seconds` (and at least [`MIN_OPS`]); returns
/// each op's host time in ms.
pub fn measure<W: Workload>(
    w: &mut W,
    seconds: f64,
    tally: &mut Tally,
    tr: &mut Tracer,
) -> Vec<f64> {
    let start = Instant::now();
    let mut op_ms = Vec::new();
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        if (elapsed >= seconds && op_ms.len() >= MIN_OPS) || elapsed >= MAX_MEASURE_S {
            return op_ms;
        }
        op_ms.push(timed_op(w, tally, tr).0);
    }
}

/// One checked op; returns its host time in ms (the check is not
/// timed) and its output.
pub fn timed_op<W: Workload>(w: &mut W, tally: &mut Tally, tr: &mut Tracer) -> (f64, W::Out) {
    let t = Instant::now();
    let out = w.op(tr);
    let ms = t.elapsed().as_secs_f64() * 1e3;
    tally.record(w.check(&out));
    (ms, out)
}

fn check_eq<T: PartialEq + std::fmt::Debug>(what: &str, got: T, want: T) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("{what}: got {got:?}, expected {want:?}"))
    }
}

/// Compare a prefix-sums output with the expected one, naming the
/// first differing index.
pub fn check_prefix(got: &[u64], want: &[u64]) -> Result<(), String> {
    check_eq("prefix output length", got.len(), want.len())?;
    match got.iter().zip(want).position(|(g, w)| g != w) {
        None => Ok(()),
        Some(i) => Err(format!("prefix output[{i}] = {}, expected {}", got[i], want[i])),
    }
}

/// Inclusive prefix sums computed by the benchmark itself, as the
/// reference for the sim workload.
fn scan(input: &[u64]) -> Vec<u64> {
    let mut acc = 0u64;
    input
        .iter()
        .map(|&v| {
            acc = acc.wrapping_add(v);
            acc
        })
        .collect()
}

/// `sim_allpairs_p1024`: one prefix-sums run on a fresh p=1024
/// simulated machine.
pub struct SimAllPairs {
    cfg: MachineConfig,
    seed: u64,
    input: Vec<u64>,
    expect: Vec<u64>,
    want: SimCounts,
}

/// The seed-independent facts of one sim op.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimCounts {
    pub total_cycles: f64,
    pub data_msgs: u64,
    pub phases: u64,
}

/// One sim op's output.
pub struct SimOut {
    pub output: Vec<u64>,
    pub counts: SimCounts,
}

impl SimCounts {
    /// The committed reference counts.
    pub fn committed(reference: &Reference) -> Self {
        let bits = u64::from_str_radix(reference.sim("total_cycles_bits"), 16)
            .expect("total_cycles_bits is hex");
        SimCounts {
            total_cycles: f64::from_bits(bits),
            data_msgs: reference.sim("data_msgs").parse().expect("data_msgs is an integer"),
            phases: reference.sim("phases").parse().expect("phases is an integer"),
        }
    }
}

impl Workload for SimAllPairs {
    type Out = SimOut;

    fn new(seed: u64, reference: &Reference) -> Self {
        let input = gen::random_u64s(SIM_N, seed);
        let expect = scan(&input);
        let want = SimCounts::committed(reference);
        SimAllPairs { cfg: MachineConfig::paper_default(SIM_P), seed, input, expect, want }
    }

    fn op(&mut self, tr: &mut Tracer) -> SimOut {
        let run = tr.span("core.SimMachine::run", || {
            prefix::run_sim(&SimMachine::new(self.cfg).with_seed(self.seed), &self.input)
        });
        let counts = SimCounts {
            total_cycles: run.run.total().get(),
            data_msgs: run.run.phases.iter().map(|r| r.data_msgs).sum(),
            phases: run.run.phases.len() as u64,
        };
        SimOut { output: run.output, counts }
    }

    fn check(&self, out: &SimOut) -> Result<(), String> {
        check_prefix(&out.output, &self.expect)?;
        check_eq("sim counts", out.counts, self.want)
    }
}

/// The serving scenario: `ext_service`'s full-size machine (p=16, 4
/// banks per node) offered twice its predicted capacity over a 2^22
/// cycle window, with seeded 1% drops on every leg.
pub fn serve_config(seed: u64) -> ServiceConfig {
    let full = RunCfg { p: 16, reps: 1, fast: false };
    let mut cfg = ext_service::base_config(&full).with_window(SERVE_WINDOW).with_seed(seed);
    cfg.machine = cfg.machine.with_faults(FaultConfig::drops(seed, SERVE_DROP));
    let capacity = qsm_serve::predict(&cfg.clone().with_offered(1)).capacity;
    let offered = (capacity * cfg.window * SERVE_LOAD).round() as usize;
    cfg.with_offered(offered)
}

impl ServeRef {
    /// The checked part of a serving outcome.
    pub fn of(out: &ServiceOutcome) -> Self {
        ServeRef {
            offered: out.offered,
            admitted: out.admitted,
            completed: out.completed,
            drops: out.drops,
            retries: out.retries,
            timed_out: out.timed_out,
            p50: out.latency_percentile(0.5),
            p99: out.latency_percentile(0.99),
            p999: out.latency_percentile(0.999),
        }
    }

    /// Conservation laws every serving outcome obeys.
    pub fn invariants(&self) -> Result<(), String> {
        let ok = self.admitted == self.offered
            && self.completed + self.timed_out == self.admitted
            && self.retries + self.timed_out == self.drops
            && self.timed_out == 0
            && self.drops > 0
            && self.p50 <= self.p99
            && self.p99 <= self.p999;
        if ok {
            Ok(())
        } else {
            Err(format!("serving outcome breaks its invariants: {self:?}"))
        }
    }
}

/// `serve_overload_p16`: one open-loop serving run.
pub struct ServeOverload {
    pub cfg: ServiceConfig,
    expect: ServeRef,
}

/// One serving op's output: the outcome's checked fields, plus the
/// completed count the Metrics-level recorder saw when tracing.
pub struct ServeOut {
    pub got: ServeRef,
    pub recorded_completed: Option<u64>,
}

/// Pull an integer counter out of a metrics dump.
pub fn metrics_counter(json: &str, name: &str) -> Option<u64> {
    let needle = format!("\"{name}\": ");
    let at = json.find(&needle)? + needle.len();
    let digits: String = json[at..].chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

impl Workload for ServeOverload {
    type Out = ServeOut;

    fn new(seed: u64, reference: &Reference) -> Self {
        let input_seed = seed % SERVE_SEEDS;
        let expect = *reference
            .serve
            .get(&input_seed)
            .unwrap_or_else(|| panic!("reference.txt lacks serving seed {input_seed}"));
        ServeOverload { cfg: serve_config(input_seed), expect }
    }

    fn op(&mut self, tr: &mut Tracer) -> ServeOut {
        let rec = if tr.enabled() {
            Recorder::new(ObsLevel::Metrics, 400e6)
        } else {
            Recorder::disabled()
        };
        let out = tr.span("serve.run", || qsm_serve::run(&self.cfg, &rec));
        let recorded_completed =
            rec.take_metrics_json().and_then(|j| metrics_counter(&j, "service_completed"));
        ServeOut { got: ServeRef::of(&out), recorded_completed }
    }

    fn check(&self, out: &ServeOut) -> Result<(), String> {
        out.got.invariants()?;
        check_eq("serving outcome", out.got, self.expect)?;
        match out.recorded_completed {
            Some(c) => check_eq("recorded service_completed", c, out.got.completed),
            None => Ok(()),
        }
    }
}

/// `threads_prefix_p2_n10m`: one prefix-sums run on the native SPMD
/// pool.
pub struct ThreadsPrefix {
    machine: ThreadMachine,
    input: Vec<u64>,
    expect: Vec<u64>,
}

impl Workload for ThreadsPrefix {
    type Out = Vec<u64>;

    fn new(seed: u64, _: &Reference) -> Self {
        let input = gen::random_u64s(THREADS_N, seed);
        let expect = seq::prefix_sums(&input);
        ThreadsPrefix { machine: ThreadMachine::new(THREADS_P).with_seed(seed), input, expect }
    }

    fn op(&mut self, tr: &mut Tracer) -> Vec<u64> {
        tr.span("core.ThreadMachine::run", || prefix::run_on(&self.machine, &self.input).output)
    }

    fn check(&self, out: &Vec<u64>) -> Result<(), String> {
        check_prefix(out, &self.expect)
    }
}

/// `figsuite_fast`: one fast-mode pass of every deterministic figure.
pub struct FigSuite {
    cfg: RunCfg,
    want: Vec<u64>,
}

impl Workload for FigSuite {
    /// Each figure's CSV hash, in [`FIGURES`] order.
    type Out = Vec<u64>;

    fn new(_seed: u64, reference: &Reference) -> Self {
        let want = FIGURES
            .iter()
            .map(|(id, _)| {
                *reference.figs.get(*id).unwrap_or_else(|| panic!("no reference for {id}"))
            })
            .collect();
        FigSuite { cfg: fast_cfg(), want }
    }

    fn op(&mut self, tr: &mut Tracer) -> Vec<u64> {
        FIGURES
            .iter()
            .map(|(id, run)| {
                let report = tr.span(&format!("bench.fig.{id}"), || run(&self.cfg));
                fnv64(report.csv.as_bytes())
            })
            .collect()
    }

    fn check(&self, out: &Vec<u64>) -> Result<(), String> {
        for ((id, _), (got, want)) in FIGURES.iter().zip(out.iter().zip(&self.want)) {
            if got != want {
                return Err(format!("{id}.csv hash {got:016x}, expected {want:016x}"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny threads-backend prefix workload whose every third op
    /// corrupts one element.
    struct Corrupting {
        inner: ThreadsPrefix,
        ops: u64,
    }

    impl Workload for Corrupting {
        type Out = Vec<u64>;
        fn new(seed: u64, _: &Reference) -> Self {
            let input = gen::random_u64s(1000, seed);
            let expect = seq::prefix_sums(&input);
            let inner = ThreadsPrefix { machine: ThreadMachine::new(2), input, expect };
            Corrupting { inner, ops: 0 }
        }
        fn op(&mut self, tr: &mut Tracer) -> Vec<u64> {
            self.ops += 1;
            let mut out = self.inner.op(tr);
            if self.ops.is_multiple_of(3) {
                out[500] ^= 1;
            }
            out
        }
        fn check(&self, out: &Vec<u64>) -> Result<(), String> {
            self.inner.check(out)
        }
    }

    #[test]
    fn corrupted_output_counts_as_a_failed_op() {
        let reference = Reference::committed();
        let mut tally = Tally::default();
        let (mut w, _) = setup::<Corrupting>(1, &reference, &mut tally);
        let ms = measure(&mut w, 0.0, &mut tally, &mut Tracer::off());
        assert_eq!(ms.len(), MIN_OPS);
        // The warm-up op plus MIN_OPS measured ones; ops 3, 6, 9 and
        // 12 were corrupted.
        assert_eq!(tally.attempted, 1 + MIN_OPS as u64);
        assert_eq!(tally.failed, 4);
        assert!(tally.first_error.unwrap().contains("prefix output[500]"));
    }

    #[test]
    fn corrupted_serving_counters_fail_the_check() {
        let cfg = serve_config(3).with_window(1e5).with_offered(500);
        let expect = ServeRef::of(&qsm_serve::run(&cfg, &Recorder::disabled()));
        let mut w = ServeOverload { cfg, expect };
        let out = w.op(&mut Tracer::on());
        assert_eq!(out.recorded_completed, Some(out.got.completed));
        assert_eq!(w.check(&out), Ok(()));
        let mut bad = ServeOut { got: out.got, recorded_completed: out.recorded_completed };
        bad.got.p99 += 1.0;
        assert!(w.check(&bad).is_err());
        bad.got = out.got;
        bad.recorded_completed = Some(out.got.completed + 1);
        assert!(w.check(&bad).is_err());
    }

    #[test]
    fn every_seed_has_a_serving_reference() {
        let reference = Reference::committed();
        for seed in [0, 5, 127, 128, 201, 1 << 40] {
            assert_eq!(ServeOverload::new(seed, &reference).expect, reference.serve[&(seed % 128)]);
        }
        assert_eq!(reference.serve.len() as u64, SERVE_SEEDS);
    }

    #[test]
    fn metrics_counter_reads_integers() {
        let j = "{\n  \"service_completed\": 42,\n  \"service_drops\": 7\n}";
        assert_eq!(metrics_counter(j, "service_completed"), Some(42));
        assert_eq!(metrics_counter(j, "service_drops"), Some(7));
        assert_eq!(metrics_counter(j, "missing"), None);
    }
}
