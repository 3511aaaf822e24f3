//! `qsm-perfbench` — the repository's end-to-end and per-layer
//! host-performance benchmark. See `README.md` in this directory.
//!
//! ```text
//! qsm-perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--scratch DIR]
//! qsm-perfbench write-reference > reference.txt
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0`
//! the metrics are the end-to-end ones; with `--trace 1` the
//! per-layer ones (see `layers`).

mod layers;
mod reference;
mod stats;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use layers::Metric;
use reference::{Reference, ServeRef};
use workloads::{
    measure, setup, FigSuite, ServeOverload, SimAllPairs, Tally, ThreadsPrefix, Workload, FIGURES,
};

/// The workloads, in the order every per-workload table uses.
pub const WORKLOADS: [&str; 4] =
    ["sim_allpairs_p1024", "serve_overload_p16", "threads_prefix_p2_n10m", "figsuite_fast"];

/// Seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;
/// Set-ups per run: at least `SETUP_MIN_REPS`, more while the run has
/// spent less than `SETUP_MIN_S` on them (up to `SETUP_MAX_REPS`), so
/// cheap set-ups get enough samples for a steady median.
const SETUP_MIN_REPS: usize = 3;
const SETUP_MAX_REPS: usize = 25;
const SETUP_MIN_S: f64 = 2.0;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    scratch: PathBuf,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        scratch: std::env::temp_dir(),
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = value()?,
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds.is_finite() && a.seconds >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--scratch" => a.scratch = PathBuf::from(value()?),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!("--workload must be one of {}", WORKLOADS.join(", ")));
    }
    Ok(a)
}

/// Clear every `QSM_*` knob so no workload reads one from the
/// caller's environment, and run figure sweeps serially.
fn pin_environment() {
    for (k, _) in std::env::vars_os() {
        if k.to_string_lossy().starts_with("QSM_") {
            std::env::remove_var(&k);
        }
    }
    std::env::set_var("QSM_JOBS", "1");
}

/// Name, FNV-1a hash and size of the running binary.
fn binary_identity() -> String {
    let Ok(exe) = std::env::current_exe() else { return "unknown".into() };
    let name = exe.file_name().map(|n| n.to_string_lossy().into_owned()).unwrap_or_default();
    match std::fs::read(&exe) {
        Ok(bytes) => {
            format!("{name} fnv64={:016x} bytes={}", reference::fnv64(&bytes), bytes.len())
        }
        Err(_) => name,
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .unwrap_or(f64::NAN);
    kb / 1024.0
}

/// Set up several times (`setup_s` is the median), then measure
/// closed-loop ops for `seconds`; returns the end-to-end metrics.
fn end_to_end<W: Workload>(a: &Args, reference: &Reference, tally: &mut Tally) -> Vec<Metric> {
    let mut setup_s = Vec::new();
    let mut w: Option<W> = None;
    while setup_s.len() < SETUP_MIN_REPS
        || (setup_s.len() < SETUP_MAX_REPS && setup_s.iter().sum::<f64>() < SETUP_MIN_S)
    {
        // Drop the previous instance first so set-up memory does not
        // double-count into the peak.
        drop(w.take());
        let (fresh, s) = setup::<W>(a.seed, reference, tally);
        w = Some(fresh);
        setup_s.push(s);
    }
    let mut w = w.expect("at least one set-up");
    let op_ms = measure(&mut w, a.seconds, tally, &mut trace::Tracer::off());
    let p50 = stats::median(&op_ms);
    let tail = stats::tail(&op_ms).expect("measure runs enough ops for a tail");
    let [q1, q2, q3] = stats::quartiles(&op_ms);
    println!("setup_s samples: {setup_s:?}");
    println!(
        "op_ms samples: {:?}",
        op_ms.iter().map(|v| (v * 1e3).round() / 1e3).collect::<Vec<_>>()
    );
    println!("op_ms quartiles: {q1:.3} / {q2:.3} / {q3:.3} over {} ops", op_ms.len());
    println!(
        "op_ms_tail is p{:.1} of {} ops ({} beyond it)",
        tail.percentile,
        tail.samples,
        stats::TAIL_BEYOND
    );
    vec![
        ("setup_s".into(), stats::median(&setup_s), "s"),
        ("op_ms_p50".into(), p50, "ms"),
        ("op_ms_tail".into(), tail.value, "ms"),
        ("peak_rss_mb".into(), peak_rss_mb(), "MiB"),
    ]
}

fn json_metrics(m: &[Metric]) -> String {
    let mut s = String::from("{");
    for (i, (name, v, unit)) in m.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ =
            write!(s, "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", json_number(*v));
    }
    s.push('}');
    s
}

/// JSON has no NaN or infinity; print those as null.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

/// Regenerate `reference.txt` from the current build.
fn write_reference() {
    println!("# Expected outputs of the benchmark's ops; regenerate with");
    println!("#   qsm-perfbench write-reference > perfbench/reference.txt");
    println!("# (see reference.rs for the line format).");
    let p = workloads::SIM_P;
    let run = qsm_algorithms::prefix::run_sim(
        &qsm_core::SimMachine::new(qsm_simnet::MachineConfig::paper_default(p))
            .with_seed(DEFAULT_SEED),
        &qsm_algorithms::gen::random_u64s(workloads::SIM_N, DEFAULT_SEED),
    );
    println!("sim total_cycles_bits {:016x}", run.run.total().get().to_bits());
    println!("sim data_msgs {}", run.run.phases.iter().map(|r| r.data_msgs).sum::<u64>());
    println!("sim phases {}", run.run.phases.len());
    let cfg = workloads::fast_cfg();
    for (id, f) in FIGURES {
        println!("fig {id} {:016x}", reference::fnv64(f(&cfg).csv.as_bytes()));
    }
    for seed in 0..workloads::SERVE_SEEDS {
        let out = qsm_serve::run(&workloads::serve_config(seed), &qsm_obs::Recorder::disabled());
        println!("{}", ServeRef::of(&out).line(seed));
    }
}

fn main() {
    pin_environment();
    let mut argv = std::env::args().skip(1).peekable();
    if argv.peek().map(String::as_str) == Some("write-reference") {
        write_reference();
        return;
    }
    let a = match parse_args(argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("qsm-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "perfbench workload={} seed={} serve_input_seed={} seconds={} trace={} nproc={nproc} binary={}",
        a.workload,
        a.seed,
        a.seed % workloads::SERVE_SEEDS,
        a.seconds,
        a.trace as u8,
        binary_identity()
    );
    let reference = Reference::committed();
    let mut tally = Tally::default();
    let metrics = if a.trace {
        let (m, t) = layers::traced_run(a.seed, a.seconds, &reference, Path::new(&a.scratch));
        tally = t;
        m
    } else {
        match a.workload.as_str() {
            "sim_allpairs_p1024" => end_to_end::<SimAllPairs>(&a, &reference, &mut tally),
            "serve_overload_p16" => end_to_end::<ServeOverload>(&a, &reference, &mut tally),
            "threads_prefix_p2_n10m" => end_to_end::<ThreadsPrefix>(&a, &reference, &mut tally),
            _ => end_to_end::<FigSuite>(&a, &reference, &mut tally),
        }
    };
    for (name, v, unit) in &metrics {
        println!("{name:<44} {v:>18.6} {unit}");
    }
    if let Some(e) = &tally.first_error {
        println!("FAILED {} of {} ops; first: {e}", tally.failed, tally.attempted);
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        json_metrics(&metrics)
    );
}
