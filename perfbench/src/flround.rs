//! `fl-round-tcp`: the whole system. One op is `fedsz_fl::run_tcp` with
//! `FlConfig::with_fedsz(1e-2)` (AlexNetS on Cifar10Like), nproc clients
//! over loopback TCP, a fixed number of rounds, and a checkpoint written
//! to a scratch directory every round.

use std::path::Path;
use std::time::Instant;

use fedsz_fl::checkpoint::{self, config_fingerprint};
use fedsz_fl::{run_tcp, FlConfig, FlRunResult};

use crate::report::RunResult;
use crate::trace::Tracer;
use crate::{reconcile, record_peak_rss, sys, Ctx};

const REL: f64 = 1e-2;
const ROUNDS: usize = 5;
/// One-round start-ups run as set-up; setup_s is their median.
const WARMUPS: usize = 3;
/// Per-round layers the program reports (normalized to the round's
/// critical path) plus the checkpoint write timed from outside.
const LAYERS: [&str; 4] = [
    "dnn.train_s",
    "core.compress_s",
    "core.decompress_s",
    "fl.checkpoint.save_s",
];
/// Evaluation, broadcast, fold and socket time have no outside span yet:
/// the remainder is large by construction and reported, so the tolerance
/// only catches a layer sum that overshoots or collapses.
const TOLERANCE: f64 = 0.60;

fn config(ctx: &Ctx, dir: &Path, rounds: usize) -> FlConfig {
    let mut cfg = FlConfig::with_fedsz(REL);
    cfg.n_clients = sys::nproc().clamp(1, 8);
    cfg.rounds = rounds;
    cfg.seed = ctx.seed;
    cfg.checkpoint_dir = Some(dir.to_path_buf());
    cfg.checkpoint_every = 1;
    if ctx.smoke {
        cfg.samples_per_client = 48;
        cfg.test_samples = 64;
    }
    cfg
}

fn fresh_dir(dir: &Path) -> Result<(), String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("clear {}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))
}

pub fn run(ctx: &Ctx, tracer: &mut Tracer) -> Result<RunResult, String> {
    let work = ctx.out_dir.join(format!("fl-round-{}", std::process::id()));
    let result = run_in(ctx, tracer, &work);
    let _ = std::fs::remove_dir_all(&work);
    result
}

fn run_in(ctx: &Ctx, tracer: &mut Tracer, work: &Path) -> Result<RunResult, String> {
    let rounds = if ctx.smoke { 1 } else { ROUNDS };
    let ckpt_dir = work.join("ckpt");
    let cfg = config(ctx, &ckpt_dir, rounds);
    let mut r = RunResult::new();
    r.note("rounds_per_op", rounds);
    r.note("clients", cfg.n_clients);
    r.note("ingest_workers", cfg.ingest_workers);

    // Set-up: start the federation (data, model, listener, connections)
    // and run one round, a few times.
    let warm = config(ctx, &work.join("warmup"), 1);
    for _ in 0..if ctx.smoke { 1 } else { WARMUPS } {
        fresh_dir(&work.join("warmup"))?;
        let t = Instant::now();
        let out = run_tcp(&warm);
        r.samples.push("setup_s", t.elapsed().as_secs_f64());
        if let Err(e) = out {
            r.record(Err(format!("one-round start-up failed: {e}")));
        }
    }

    let mut first_model: Option<Vec<u8>> = None;
    let start = Instant::now();
    let mut op = 0u64;
    while ctx.more(start, op, if ctx.trace { 2 } else { 1 }) {
        let traced = ctx.trace && op % 2 == 1;
        fresh_dir(&ckpt_dir)?;
        let root = traced.then(|| tracer.begin(op, "op", None));
        sys::reset_peak_rss();
        let t = Instant::now();
        let out = run_tcp(&cfg);
        let wall = t.elapsed().as_secs_f64();
        if !traced {
            record_peak_rss(&mut r.samples);
        }
        if let Some(root) = root {
            tracer.end(root);
        }
        let check = out
            .map_err(|e| format!("run_tcp failed: {e}"))
            .and_then(|res| check(&res, &cfg, &mut first_model).map(|()| res));
        let res = match check {
            Ok(res) => {
                r.record(Ok(()));
                res
            }
            Err(e) => {
                r.record(Err(e));
                op += 1;
                continue;
            }
        };
        let round_s = wall / rounds as f64;
        if traced {
            layers(op, &res, &cfg, round_s, work, tracer, &mut r)?;
        } else {
            let raw: usize = res.rounds.iter().map(|m| m.bytes_uncompressed).sum();
            let up: usize = res.rounds.iter().map(|m| m.bytes_on_wire).sum();
            let s = &mut r.samples;
            s.push("op_latency_s", round_s);
            s.push("raw_mb_s", raw as f64 / 1e6 / wall);
            s.push("compression_ratio", raw as f64 / up as f64);
            s.push("trace.untraced_op_s", round_s);
        }
        op += 1;
    }
    if ctx.trace {
        reconcile(&mut r, &LAYERS, TOLERANCE);
    }
    Ok(r)
}

/// Every round delivered the whole cohort with no fault of any kind, and
/// the final model is bit-identical to the first op's.
fn check(res: &FlRunResult, cfg: &FlConfig, first: &mut Option<Vec<u8>>) -> Result<(), String> {
    if res.rounds.len() != cfg.rounds {
        return Err(format!(
            "{} rounds run, {} asked",
            res.rounds.len(),
            cfg.rounds
        ));
    }
    for m in &res.rounds {
        let f = &m.faults;
        let faults = f.rejected + f.quarantined + f.suspected + f.shed + f.late + f.dropped;
        if faults != 0 || f.delivered != cfg.n_clients {
            return Err(format!("round {}: faults {f:?}", m.round));
        }
    }
    let bytes = res.final_model.to_bytes();
    match first {
        Some(b) if *b != bytes => Err("final model differs from the first op's".into()),
        Some(_) => Ok(()),
        None => {
            *first = Some(bytes);
            Ok(())
        }
    }
}

/// Per-round layer figures of one traced op. Clients train and compress
/// concurrently, one per core, so the cohort totals the program reports
/// are divided by the client count; decompress runs on the ingest
/// workers and is divided by the lanes that can run at once.
fn layers(
    op: u64,
    res: &FlRunResult,
    cfg: &FlConfig,
    round_s: f64,
    work: &Path,
    tracer: &mut Tracer,
    r: &mut RunResult,
) -> Result<(), String> {
    let rounds = res.rounds.len() as f64;
    let clients = cfg.n_clients as f64;
    let lanes = cfg.ingest_workers.clamp(1, cfg.n_clients) as f64;
    let sum = |f: fn(&fedsz_fl::RoundMetrics) -> f64| res.rounds.iter().map(f).sum::<f64>();
    let train = sum(|m| m.train_s_total) / rounds / clients;
    let compress = sum(|m| m.compress_s_total) / rounds / clients;
    let decompress = sum(|m| m.decompress_s_total) / rounds / lanes;

    // The run's final checkpoint, written again from outside.
    let ckpt_dir = cfg.checkpoint_dir.as_deref().ok_or("no checkpoint dir")?;
    let ckpt = checkpoint::load_latest(ckpt_dir, config_fingerprint(cfg))
        .map_err(|e| format!("load checkpoint: {e}"))?
        .ok_or("the run left no checkpoint")?;
    let save_dir = work.join("save");
    fresh_dir(&save_dir)?;
    let s = tracer.begin(op, "fl.checkpoint.save", None);
    let path = checkpoint::save(&save_dir, &ckpt).map_err(|e| format!("save checkpoint: {e}"))?;
    let save_s = tracer.end(s);
    let bytes = std::fs::metadata(&path).map_or(0, |m| m.len());

    let samples = &mut r.samples;
    samples.push("trace.traced_op_s", round_s);
    samples.push("dnn.train_s", train);
    samples.push("core.compress_s", compress);
    samples.push("core.decompress_s", decompress);
    samples.push("core.codec_share", (compress + decompress) / round_s);
    samples.push("fl.checkpoint.save_s", save_s);
    samples.push("fl.checkpoint.bytes", bytes as f64);
    samples.push("fl.wire.bytes_up", sum(|m| m.bytes_on_wire as f64) / rounds);
    samples.push(
        "fl.wire.bytes_down",
        sum(|m| m.bytes_down_wire as f64) / rounds,
    );
    samples.push("dnn.final_accuracy", res.final_accuracy());
    Ok(())
}
