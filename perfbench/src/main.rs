//! The repository benchmark: three closed-loop workloads driven from one
//! process, each timed end to end (untraced run) or layer by layer (traced
//! run), with every op's output checked.
//!
//! ```text
//! fedsz-perfbench --workload <uplink-resnet50|aggregate-resnet50|fl-round-tcp>
//!                 --seed <n> --seconds <s> --trace <0|1>
//!                 [--out-dir <dir>] [--rev <id>] [--smoke] [--corrupt-frame]
//! ```
//!
//! Standard output ends with a report line (stamps, sample counts,
//! spreads, notes) and then the result line
//! `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}`.
//! `--smoke` shrinks every workload to a small model for the test suite;
//! `--corrupt-frame` flips one byte of one aggregate frame after the
//! reference is computed, which must count as a failed op.

mod aggregate;
mod flround;
mod report;
mod stats;
mod sys;
mod trace;
mod uplink;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use report::{RunResult, Samples, Stamp};

pub const WORKLOADS: [&str; 3] = ["uplink-resnet50", "aggregate-resnet50", "fl-round-tcp"];

/// What every workload receives.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub corrupt_frame: bool,
    /// Scratch space for checkpoints and the span file.
    pub out_dir: PathBuf,
}

impl Ctx {
    /// Closed loop: keep issuing ops until `seconds` have passed since
    /// `start` and at least `min_ops` were issued.
    pub fn more(&self, start: Instant, issued: u64, min_ops: u64) -> bool {
        issued < min_ops || start.elapsed() < Duration::from_secs_f64(self.seconds)
    }
}

/// Per-workload reconciliation: per-layer self-time medians must add up
/// to the untraced end-to-end median within `tolerance` (a share of it).
/// The remainder is reported as `trace.unattributed_s`, never absorbed.
pub fn reconcile(r: &mut RunResult, layers: &[&'static str], tolerance: f64) {
    let e2e = r.samples.median("trace.untraced_op_s");
    let traced = r.samples.median("trace.traced_op_s");
    let sum: f64 = layers.iter().map(|l| r.samples.median(l)).sum();
    let unattributed = e2e - sum;
    let share = unattributed / e2e;
    let s = &mut r.samples;
    s.push("trace.layer_sum_s", sum);
    s.push("trace.unattributed_s", unattributed);
    s.push("trace.unattributed_share", share);
    s.push("trace.overhead_s", traced - e2e);
    s.push(
        "trace.reconciled",
        f64::from(u8::from(share.abs() <= tolerance)),
    );
    r.note("reconcile_layers", layers.join("+"));
    r.note("reconcile_tolerance", tolerance);
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("usage error: {msg}");
    eprintln!(
        "usage: fedsz-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> \
         [--out-dir <dir>] [--rev <id>] [--smoke] [--corrupt-frame]",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out_dir = PathBuf::from(".bench_build/perfbench");
    let mut rev = String::from("unknown");
    let mut smoke = false;
    let mut corrupt_frame = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--smoke" => smoke = true,
            "--corrupt-frame" => corrupt_frame = true,
            "--workload" | "--seed" | "--seconds" | "--trace" | "--out-dir" | "--rev" => {
                let Some(v) = args.next() else {
                    return usage(&format!("{flag} needs a value"));
                };
                match flag.as_str() {
                    "--workload" => workload = Some(v),
                    "--seed" => seed = v.parse::<u64>().ok(),
                    "--seconds" => seconds = v.parse::<f64>().ok().filter(|s| *s > 0.0),
                    "--trace" => trace = matches!(v.as_str(), "0" | "1").then(|| v == "1"),
                    "--out-dir" => out_dir = PathBuf::from(v),
                    _ => rev = v,
                }
            }
            other => return usage(&format!("unknown argument {other}")),
        }
    }
    let Some(workload) = workload.filter(|w| WORKLOADS.contains(&w.as_str())) else {
        return usage("--workload must name a known workload");
    };
    let (Some(seed), Some(seconds), Some(trace)) = (seed, seconds, trace) else {
        return usage("--seed <u64>, --seconds <positive> and --trace <0|1> are required");
    };
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("cannot create {}: {e}", out_dir.display());
        return ExitCode::FAILURE;
    }
    let ctx = Ctx {
        seed,
        seconds,
        trace,
        smoke,
        corrupt_frame,
        out_dir,
    };
    let mut tracer = trace::Tracer::new();
    let result = match workload.as_str() {
        "uplink-resnet50" => uplink::run(&ctx, &mut tracer),
        "aggregate-resnet50" => aggregate::run(&ctx, &mut tracer),
        _ => flround::run(&ctx, &mut tracer),
    };
    let mut result = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{workload}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if trace {
        let path = ctx
            .out_dir
            .join(format!("spans-{workload}-seed{seed}.jsonl"));
        match tracer.write_jsonl(&path) {
            Ok(()) => result.note("spans_file", path.display()),
            Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
        }
    }
    let stamp = Stamp {
        workload: &workload,
        seed,
        seconds,
        trace,
        rev: &rev,
    };
    eprint!("{}", report::table(&stamp, &result));
    println!("{}", report::report_line(&stamp, &result));
    match report::result_line(trace, &result) {
        Some(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        None => {
            eprintln!("{workload}: a metric was not a finite number; no result printed");
            ExitCode::FAILURE
        }
    }
}

/// Peak RSS since the last `sys::reset_peak_rss`, as one op's sample.
pub fn record_peak_rss(s: &mut Samples) {
    if let Some(mb) = sys::peak_rss_mb() {
        s.push("peak_rss_mb", mb);
    }
}
