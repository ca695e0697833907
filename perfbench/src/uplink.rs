//! `uplink-resnet50`: the client side of the paper. One op compresses one
//! client's synthetic ResNet50 state dict with SZ2 + blosc-lz at a
//! relative bound of 1e-2, cycling over a few distinct client seeds.

use std::hint::black_box;
use std::time::Instant;

use fedsz::{route_of, CompressedUpdate, FedSzConfig, Route};
use fedsz_models::ModelKind;
use fedsz_tensor::{f32s_to_le_bytes, StateDict};

use crate::report::RunResult;
use crate::trace::Tracer;
use crate::{reconcile, record_peak_rss, sys, Ctx};

const REL: f64 = 1e-2;
const CLIENTS: u64 = 3;
/// Traced layers whose self times must add up to one compress.
const LAYERS: [&str; 3] = [
    "eblc.sz2_compress_s",
    "lossless.blosclz_compress_s",
    "core.framing_s",
];
/// The layers are timed around the same calls the op makes, so they
/// should match the untraced op up to run-to-run noise.
const TOLERANCE: f64 = 0.15;

pub fn client_seed(seed: u64, i: u64) -> u64 {
    seed.wrapping_mul(1_000_003).wrapping_add(i)
}

pub fn run(ctx: &Ctx, tracer: &mut Tracer) -> Result<RunResult, String> {
    let model = if ctx.smoke {
        ModelKind::MobileNetV2
    } else {
        ModelKind::ResNet50
    };
    let mut r = RunResult::new();
    let cfg = FedSzConfig::with_rel_bound(REL);

    // Set-up: synthesize each client's update; setup_s is the median.
    let mut clients = Vec::new();
    for i in 0..CLIENTS {
        let t = Instant::now();
        clients.push(model.synthesize(10, client_seed(ctx.seed, i)));
        r.samples.push("setup_s", t.elapsed().as_secs_f64());
    }
    let first = &clients[0];
    r.note("model", model.name());
    r.note("raw_bytes_per_op", first.nbytes());
    r.note("entries", first.len());
    r.note("clients", CLIENTS);

    if ctx.trace {
        simd_micro(first, tracer, &mut r);
    }

    let start = Instant::now();
    let mut op = 0u64;
    while ctx.more(start, op, if ctx.trace { 2 } else { 1 }) {
        let sd = &clients[(op % CLIENTS) as usize];
        // Traced runs alternate untraced and traced ops, so the tracing
        // overhead and the reconciliation compare like with like.
        let update = if ctx.trace && op % 2 == 1 {
            traced_op(op, sd, &cfg, tracer, &mut r)
        } else {
            sys::reset_peak_rss();
            let update = untraced_op(sd, &cfg, &mut r);
            record_peak_rss(&mut r.samples);
            update
        };
        r.record(check(sd, &update, &cfg));
        op += 1;
    }
    if ctx.trace {
        reconcile(&mut r, &LAYERS, TOLERANCE);
    }
    Ok(r)
}

fn untraced_op(sd: &StateDict, cfg: &FedSzConfig, r: &mut RunResult) -> CompressedUpdate {
    let cpu0 = sys::cpu_seconds();
    let t = Instant::now();
    let update = fedsz::compress(black_box(sd), cfg);
    let wall = t.elapsed().as_secs_f64();
    let cpu1 = sys::cpu_seconds();
    let s = &mut r.samples;
    s.push("op_latency_s", wall);
    s.push("raw_mb_s", sd.nbytes() as f64 / 1e6 / wall);
    s.push(
        "compression_ratio",
        sd.nbytes() as f64 / update.nbytes() as f64,
    );
    s.push("trace.untraced_op_s", wall);
    if let (Some(a), Some(b)) = (cpu0, cpu1) {
        s.push("core.cpu_util", (b - a) / wall);
    }
    update
}

/// One compress inside a span, then each tensor's codec call replayed
/// outside the op, each in its own span. The framing time is what the
/// compress took beyond its codec calls.
fn traced_op(
    op: u64,
    sd: &StateDict,
    cfg: &FedSzConfig,
    tracer: &mut Tracer,
    r: &mut RunResult,
) -> CompressedUpdate {
    let root = tracer.begin(op, "op", None);
    let c = tracer.begin(op, "core.compress", Some(root));
    let update = fedsz::compress(black_box(sd), cfg);
    tracer.end_with_bytes(c, sd.nbytes(), update.nbytes());
    let op_s = tracer.end(root);

    let replay = tracer.begin(op, "replay", None);
    let mut largest_sz2 = 0.0f64;
    for e in sd.entries() {
        match route_of(&e.name, e.tensor.numel(), cfg.threshold) {
            Route::Lossy => {
                let s = tracer.begin(op, "eblc.sz2_compress", Some(replay));
                let out = cfg
                    .lossy
                    .compress(black_box(e.tensor.data()), cfg.error_bound);
                let secs = tracer.end_with_bytes(s, e.tensor.nbytes(), out.len());
                largest_sz2 = largest_sz2.max(secs);
            }
            Route::Lossless => {
                let bytes = f32s_to_le_bytes(e.tensor.data());
                let s = tracer.begin(op, "lossless.blosclz_compress", Some(replay));
                let out = cfg.lossless.compress(black_box(&bytes));
                tracer.end_with_bytes(s, bytes.len(), out.len());
            }
        }
    }
    tracer.end(replay);

    let (compress_s, _, _) = tracer.totals(op, "core.compress");
    let (sz2_s, sz2_in, sz2_out) = tracer.totals(op, "eblc.sz2_compress");
    let (blz_s, blz_in, blz_out) = tracer.totals(op, "lossless.blosclz_compress");
    let s = &mut r.samples;
    s.push("trace.traced_op_s", op_s);
    s.push("core.compress_s", compress_s);
    s.push("eblc.sz2_compress_s", sz2_s);
    s.push("lossless.blosclz_compress_s", blz_s);
    s.push("core.framing_s", compress_s - sz2_s - blz_s);
    s.push("eblc.max_tensor_share", largest_sz2 / sz2_s);
    s.push("eblc.lossy_ratio", sz2_in as f64 / sz2_out as f64);
    s.push("lossless.ratio", blz_in as f64 / blz_out as f64);
    update
}

/// SIMD kernel throughput at the detected level, on the largest lossy
/// tensor of the first client.
fn simd_micro(sd: &StateDict, tracer: &mut Tracer, r: &mut RunResult) {
    const MICRO_OP: u64 = u64::MAX;
    let level = fedsz_simd::detected_level();
    let Some(e) = sd
        .entries()
        .iter()
        .filter(|e| route_of(&e.name, e.tensor.numel(), fedsz::DEFAULT_THRESHOLD) == Route::Lossy)
        .max_by_key(|e| e.tensor.numel())
    else {
        return;
    };
    let values = e.tensor.data();
    let n = values.len();
    let mut preds = vec![0.0f32; n];
    preds[1..].copy_from_slice(&values[..n - 1]);
    let abs_eb = fedsz::ErrorBound::Rel(REL).absolute(values);
    let p = fedsz_simd::QuantParams {
        abs_eb,
        bin: 2.0 * abs_eb,
        radius: 32768.0,
    };
    let mut codes = vec![0u32; n];
    let mut recons = vec![0.0f32; n];
    let bytes = f32s_to_le_bytes(values);
    let mut shuffled = vec![0u8; bytes.len()];
    let mb = bytes.len() as f64 / 1e6;
    for _ in 0..5 {
        let s = tracer.begin(MICRO_OP, "simd.quantize", None);
        fedsz_simd::quantize_at(level, black_box(values), &preds, p, &mut codes, &mut recons);
        let secs = tracer.end_with_bytes(s, bytes.len(), codes.len() * 4);
        r.samples.push("simd.quantize_mb_s", mb / secs);
        let s = tracer.begin(MICRO_OP, "simd.shuffle", None);
        fedsz_simd::shuffle4_into_at(level, black_box(&bytes), &mut shuffled);
        let secs = tracer.end_with_bytes(s, bytes.len(), shuffled.len());
        r.samples.push("simd.shuffle_mb_s", mb / secs);
    }
    black_box((&codes, &recons, &shuffled));
    r.note("simd_micro_tensor", format!("{} ({} values)", e.name, n));
}

/// Decompress the op's output: lossy tensors must sit within the relative
/// bound of their value range, lossless ones must come back bit-exact.
fn check(sd: &StateDict, update: &CompressedUpdate, cfg: &FedSzConfig) -> Result<(), String> {
    let back = fedsz::decompress(update).map_err(|e| format!("decompress failed: {e}"))?;
    if back.len() != sd.len() {
        return Err(format!("{} entries back, {} sent", back.len(), sd.len()));
    }
    for (a, b) in sd.entries().iter().zip(back.entries()) {
        if a.name != b.name || a.tensor.shape() != b.tensor.shape() {
            return Err(format!("entry {} came back as {}", a.name, b.name));
        }
        let (x, y) = (a.tensor.data(), b.tensor.data());
        match route_of(&a.name, a.tensor.numel(), cfg.threshold) {
            Route::Lossy => {
                let eb = cfg.error_bound.absolute(x);
                if let Some(i) =
                    (0..x.len()).find(|&i| (f64::from(x[i]) - f64::from(y[i])).abs() > eb)
                {
                    return Err(format!(
                        "{}[{i}]: |{} - {}| exceeds the bound {eb}",
                        a.name, x[i], y[i]
                    ));
                }
            }
            Route::Lossless => {
                if x.iter().zip(y).any(|(p, q)| p.to_bits() != q.to_bits()) {
                    return Err(format!("{}: lossless tensor not bit-exact", a.name));
                }
            }
        }
    }
    Ok(())
}
