//! `aggregate-resnet50`: the server side. One op turns a cohort of encoded
//! `Frame::Update` frames, prepared in set-up, into the next global model:
//! `wire::decode`, then `IngestPool` submit/recv (decompress + validate on
//! the default worker count), then `StreamingFedAvg::fold` in submission
//! order, then `finish`. Client encode does not run in the loop.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use fedsz::{route_of, FedSzConfig, LosslessKind, LossyKind, Route};
use fedsz_fl::ingest::{default_workers, Job, Verdict};
use fedsz_fl::wire::{self, Frame};
use fedsz_fl::{fedavg, validate_update, IngestPool, StreamingFedAvg};
use fedsz_models::ModelKind;
use fedsz_tensor::{f32s_to_le_bytes, StateDict};

use crate::report::RunResult;
use crate::trace::{SpanId, Tracer};
use crate::{reconcile, record_peak_rss, sys, Ctx};

const REL: f64 = 1e-2;
const COHORT: usize = 4;
/// Layers on the collector's blocking path. Decompress and validate run
/// on the ingest workers, overlap the fold, and reach the round's time
/// only through `fl.ingest.wait_s`; they are reported as worker busy time
/// and are not added again.
const LAYERS: [&str; 6] = [
    "fl.aggregate.alloc_s",
    "fl.wire.decode_s",
    "fl.ingest.submit_s",
    "fl.ingest.wait_s",
    "fl.aggregate.fold_s",
    "fl.aggregate.finish_s",
];
/// The span each of `LAYERS` is measured by.
const SPANS: [&str; 6] = [
    "fl.aggregate.alloc",
    "fl.wire.decode",
    "fl.ingest.submit",
    "fl.ingest.wait",
    "fl.aggregate.fold",
    "fl.aggregate.finish",
];
/// Freeing each decoded update after its fold falls between spans.
const TOLERANCE: f64 = 0.15;

/// One client's per-tensor codec payloads, replayed in traced runs to
/// split decompress time between the lossy and lossless codecs.
type Payloads = Vec<(Route, Vec<u8>)>;

struct Prepared {
    frame: Vec<u8>,
    raw_bytes: usize,
    wire_bytes: usize,
    payloads: Payloads,
    /// Zeroed copy of the model (first client only): the broadcast model
    /// that validation checks structure against.
    proto: Option<StateDict>,
}

fn prepare(
    model: ModelKind,
    seed: u64,
    i: usize,
    cfg: &FedSzConfig,
    replay: bool,
) -> (Prepared, f64) {
    let t = Instant::now();
    let sd = model.synthesize(10, crate::uplink::client_seed(seed, 100 + i as u64));
    let t_c = Instant::now();
    let payload = fedsz::compress(&sd, cfg);
    let compress_s = t_c.elapsed().as_secs_f64();
    let samples = 128 + 32 * i;
    let wire_bytes = payload.nbytes();
    let frame = wire::encode(&Frame::Update {
        round: 0,
        attempt: 0,
        client_id: i,
        samples,
        train_s: 0.0,
        compress_s,
        raw_bytes: sd.nbytes(),
        payload,
    });
    let secs = t.elapsed().as_secs_f64();
    let payloads = if replay {
        sd.entries()
            .iter()
            .map(
                |e| match route_of(&e.name, e.tensor.numel(), cfg.threshold) {
                    Route::Lossy => (
                        Route::Lossy,
                        cfg.lossy.compress(e.tensor.data(), cfg.error_bound),
                    ),
                    Route::Lossless => (
                        Route::Lossless,
                        cfg.lossless.compress(&f32s_to_le_bytes(e.tensor.data())),
                    ),
                },
            )
            .collect()
    } else {
        Vec::new()
    };
    let prepared = Prepared {
        frame,
        raw_bytes: sd.nbytes(),
        wire_bytes,
        payloads,
        proto: (i == 0).then(|| sd.zeros_like()),
    };
    (prepared, secs)
}

pub fn run(ctx: &Ctx, tracer: &mut Tracer) -> Result<RunResult, String> {
    let model = if ctx.smoke {
        ModelKind::MobileNetV2
    } else {
        ModelKind::ResNet50
    };
    let cfg = FedSzConfig::with_rel_bound(REL);
    let mut r = RunResult::new();

    // Set-up: one synthesize + compress + frame per cohort slot, on at most
    // nproc threads; setup_s is the median per slot.
    let threads = sys::nproc().clamp(1, COHORT);
    let mut slots: Vec<Option<(Prepared, f64)>> = (0..COHORT).map(|_| None).collect();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let cfg = &cfg;
                s.spawn(move || {
                    (t..COHORT)
                        .step_by(threads)
                        .map(|i| (i, prepare(model, ctx.seed, i, cfg, ctx.trace)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for h in handles {
            for (i, p) in h.join().expect("set-up thread panicked") {
                slots[i] = Some(p);
            }
        }
    });
    let mut cohort = Vec::with_capacity(COHORT);
    for slot in slots {
        let (p, secs) = slot.expect("every slot prepared");
        r.samples.push("setup_s", secs);
        cohort.push(p);
    }
    let global = Arc::new(
        cohort[0]
            .proto
            .take()
            .expect("first slot carries the model"),
    );
    let params: usize = global.entries().iter().map(|e| e.tensor.numel()).sum();
    let raw: usize = cohort.iter().map(|p| p.raw_bytes).sum();
    let wire_bytes: usize = cohort.iter().map(|p| p.wire_bytes).sum();
    r.note("model", model.name());
    r.note("cohort", COHORT);
    r.note("params", params);
    r.note("ingest_workers", default_workers());

    // The reference: the materialized FedAvg of the same cohort, computed
    // once. Every op's model must match it bit for bit.
    let t = Instant::now();
    let reference = match reference_model(&cohort) {
        Ok(m) => m,
        Err(e) => {
            r.record(Err(format!("reference FedAvg failed: {e}")));
            return Ok(r);
        }
    };
    r.note("reference_s", t.elapsed().as_secs_f64());
    if ctx.trace {
        accumulator_footprint(&reference, params, &mut r);
    }
    if ctx.corrupt_frame {
        let f = &mut cohort[1].frame;
        let at = f.len() / 2;
        f[at] ^= 0x40;
        r.note("corrupted", format!("frame 1, byte {at}"));
    }

    let mut pool = IngestPool::new(default_workers(), COHORT);
    let start = Instant::now();
    let mut op = 0u64;
    while ctx.more(start, op, if ctx.trace { 2 } else { 1 }) {
        let traced = ctx.trace && op % 2 == 1;
        sys::reset_peak_rss();
        let cpu0 = sys::cpu_seconds();
        let t = Instant::now();
        let mut spans = traced.then_some(&mut *tracer);
        let outcome = aggregate_op(op, &cohort, &global, &mut pool, &mut spans);
        let wall = t.elapsed().as_secs_f64();
        let cpu1 = sys::cpu_seconds();
        if !traced {
            record_peak_rss(&mut r.samples);
        }
        let check = outcome.and_then(|(model, decompress_s)| {
            if traced {
                r.samples.push("core.decompress_s", decompress_s);
                replay(op, &cohort, tracer, &mut r);
            }
            same_bits(&model, &reference)
        });
        let ok = check.is_ok();
        r.record(check);
        if ok && !traced {
            let s = &mut r.samples;
            s.push("op_latency_s", wall);
            s.push("raw_mb_s", raw as f64 / 1e6 / wall);
            s.push("compression_ratio", raw as f64 / wire_bytes as f64);
            s.push("trace.untraced_op_s", wall);
            if let (Some(a), Some(b)) = (cpu0, cpu1) {
                s.push("fl.ingest.cpu_util", (b - a) / wall);
            }
        } else if ok {
            let self_s = tracer.self_times(op);
            let of = |span: &str| self_s.get(span).copied().unwrap_or(0.0);
            let s = &mut r.samples;
            for (metric, span) in LAYERS.iter().zip(SPANS) {
                s.push(metric, of(span));
            }
            s.push("fl.validate.validate_s", of("replay.validate"));
            s.push(
                "fl.aggregate.ns_per_param",
                of("fl.aggregate.fold") * 1e9 / (COHORT * params) as f64,
            );
            let op_s = tracer.totals(op, "op").0 - of("replay.validate");
            s.push("trace.traced_op_s", op_s);
        }
        op += 1;
    }
    drop(pool);
    if ctx.trace {
        reconcile(&mut r, &LAYERS, TOLERANCE);
    }
    Ok(r)
}

fn reference_model(cohort: &[Prepared]) -> Result<StateDict, String> {
    let mut updates = Vec::with_capacity(cohort.len());
    for p in cohort {
        match wire::decode(&p.frame).map_err(|e| e.to_string())? {
            Frame::Update {
                payload, samples, ..
            } => {
                let sd = fedsz::decompress(&payload).map_err(|e| e.to_string())?;
                updates.push((sd, samples));
            }
            _ => return Err("set-up frame is not an update".into()),
        }
    }
    fedavg(&updates).map_err(|e| e.to_string())
}

/// Span helper that costs nothing when the op is not traced.
fn begin(
    spans: &mut Option<&mut Tracer>,
    op: u64,
    name: &'static str,
    parent: Option<SpanId>,
) -> Option<SpanId> {
    spans.as_mut().map(|t| t.begin(op, name, parent))
}

fn end(spans: &mut Option<&mut Tracer>, id: Option<SpanId>, bytes_in: usize, bytes_out: usize) {
    if let (Some(t), Some(id)) = (spans.as_mut(), id) {
        t.end_with_bytes(id, bytes_in, bytes_out);
    }
}

/// One aggregation round. Every submitted job is drained even when an
/// earlier step failed, so the pool stays usable for the next op.
fn aggregate_op(
    op: u64,
    cohort: &[Prepared],
    global: &Arc<StateDict>,
    pool: &mut IngestPool,
    spans: &mut Option<&mut Tracer>,
) -> Result<(StateDict, f64), String> {
    let root = begin(spans, op, "op", None);
    let mut errors = Vec::new();
    let a = begin(spans, op, "fl.aggregate.alloc", root);
    let mut acc = StreamingFedAvg::new(global);
    end(spans, a, 0, 0);

    let mut submitted = 0u64;
    for (slot, p) in cohort.iter().enumerate() {
        let d = begin(spans, op, "fl.wire.decode", root);
        let frame = wire::decode(black_box(&p.frame));
        end(spans, d, p.frame.len(), 0);
        match frame {
            Ok(Frame::Update {
                client_id,
                samples,
                train_s,
                compress_s,
                raw_bytes,
                payload,
                ..
            }) => {
                let s = begin(spans, op, "fl.ingest.submit", root);
                let wire_bytes = payload.nbytes();
                pool.submit(Job {
                    seq: submitted,
                    client_id,
                    payload,
                    samples,
                    train_s,
                    compress_s,
                    raw_bytes,
                    wire_bytes,
                    reserved: 0,
                    global: Arc::clone(global),
                });
                end(spans, s, wire_bytes, 0);
                submitted += 1;
            }
            Ok(_) => errors.push(format!("slot {slot}: not an update frame")),
            Err(e) => errors.push(format!("slot {slot}: wire decode failed: {e}")),
        }
    }

    // Settle in submission order, as the server's collector does.
    let mut pending = BTreeMap::new();
    let mut next = 0u64;
    // Program-reported: each worker's own timer around `fedsz::decompress`.
    let mut decompress_s = 0.0;
    for _ in 0..submitted {
        let w = begin(spans, op, "fl.ingest.wait", root);
        let outcome = pool.recv();
        end(spans, w, 0, 0);
        decompress_s += outcome.decompress_s;
        pending.insert(outcome.seq, outcome);
        while let Some(o) = pending.remove(&next) {
            next += 1;
            match o.verdict {
                Verdict::Accept(sd) => {
                    let f = begin(spans, op, "fl.aggregate.fold", root);
                    let folded = acc.fold(&sd, o.samples);
                    end(spans, f, sd.nbytes(), 0);
                    if let Err(e) = folded {
                        errors.push(format!("client {}: fold refused: {e}", o.client_id));
                    }
                    // Traced ops validate the update again, in a span the
                    // op's time excludes, while it is still resident.
                    let v = begin(spans, op, "replay.validate", root);
                    if v.is_some() {
                        black_box(validate_update(black_box(&sd), global, o.samples).is_ok());
                    }
                    end(spans, v, sd.nbytes(), 0);
                }
                Verdict::Quarantine(why) => {
                    errors.push(format!("client {}: quarantined: {why}", o.client_id))
                }
                Verdict::Reject(e) => errors.push(format!("client {}: rejected: {e}", o.client_id)),
            }
        }
    }
    if !errors.is_empty() {
        end(spans, root, 0, 0);
        return Err(errors.join("; "));
    }
    let f = begin(spans, op, "fl.aggregate.finish", root);
    let model = acc.finish().map_err(|e| format!("finish failed: {e}"));
    end(spans, f, 0, 0);
    end(spans, root, 0, 0);
    Ok((model?, decompress_s))
}

/// Outside the op: decode each client's per-tensor payloads with the
/// codec alone, each in a span.
fn replay(op: u64, cohort: &[Prepared], tracer: &mut Tracer, r: &mut RunResult) {
    let root = tracer.begin(op, "replay", None);
    for p in cohort {
        for (route, payload) in &p.payloads {
            match route {
                Route::Lossy => {
                    let s = tracer.begin(op, "eblc.sz2_decompress", Some(root));
                    let out = LossyKind::Sz2.decompress(black_box(payload));
                    tracer.end_with_bytes(s, payload.len(), out.map_or(0, |v| v.len() * 4));
                }
                Route::Lossless => {
                    let s = tracer.begin(op, "lossless.blosclz_decompress", Some(root));
                    let out = LosslessKind::BloscLz.decompress(black_box(payload));
                    tracer.end_with_bytes(s, payload.len(), out.map_or(0, |v| v.len()));
                }
            }
        }
    }
    tracer.end(root);
    let s = &mut r.samples;
    s.push(
        "eblc.sz2_decompress_s",
        tracer.totals(op, "eblc.sz2_decompress").0,
    );
    s.push(
        "lossless.blosclz_decompress_s",
        tracer.totals(op, "lossless.blosclz_decompress").0,
    );
}

/// Resident bytes per parameter that a fresh accumulator adds once an
/// update has been folded into it, measured on its own before the loop.
fn accumulator_footprint(update: &StateDict, params: usize, r: &mut RunResult) {
    let before = sys::rss_bytes();
    let mut acc = StreamingFedAvg::new(update);
    let folded = acc.fold(update, 1).is_ok();
    let after = sys::rss_bytes();
    drop(black_box(acc));
    if let (true, Some(a), Some(b)) = (folded, before, after) {
        r.samples.push(
            "fl.aggregate.accumulator_bytes_per_param",
            (b - a) / params as f64,
        );
    }
}

fn same_bits(model: &StateDict, reference: &StateDict) -> Result<(), String> {
    if model.len() != reference.len() {
        return Err("aggregate has a different entry count than the reference".into());
    }
    for (a, b) in model.entries().iter().zip(reference.entries()) {
        let same = a.name == b.name
            && a.tensor.shape() == b.tensor.shape()
            && a.tensor
                .data()
                .iter()
                .zip(b.tensor.data())
                .all(|(x, y)| x.to_bits() == y.to_bits());
        if !same {
            return Err(format!(
                "{}: aggregate differs from the FedAvg reference",
                a.name
            ));
        }
    }
    Ok(())
}
