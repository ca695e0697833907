//! The metric catalogue and the result lines.
//!
//! Every workload emits every catalogued metric of its mode: the untraced
//! run (`--trace 0`) the end-to-end set, the traced run (`--trace 1`) the
//! per-layer set. A per-layer metric whose layer does not run on a
//! workload is emitted as 0 with sample count 0. The catalogue also
//! records, for each per-layer metric, the end-to-end metric it should
//! move and on which workload; the report line carries that mapping.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::stats::{summarize, Summary};

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// Workloads on which the layer runs (per-layer metrics only).
    pub workloads: &'static str,
    /// The end-to-end metric this layer metric should move.
    pub moves: &'static str,
    /// Who measured it: the benchmark's own clock around a public call,
    /// or a figure the program reports about itself.
    pub source: &'static str,
}

const fn e2e(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        workloads: "all",
        moves: "",
        source: "benchmark",
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    workloads: &'static str,
    moves: &'static str,
    source: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        workloads,
        moves,
        source,
    }
}

const U: &str = "uplink-resnet50";
const A: &str = "aggregate-resnet50";
const F: &str = "fl-round-tcp";
const UAF: &str = "all";
const UF: &str = "uplink-resnet50,fl-round-tcp";
const AF: &str = "aggregate-resnet50,fl-round-tcp";
const B: &str = "benchmark";
const P: &str = "program";

pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s"),
    e2e("op_latency_s", "s"),
    e2e("raw_mb_s", "MB/s"),
    e2e("compression_ratio", "ratio"),
    e2e("peak_rss_mb", "MB"),
];

pub const PER_LAYER: &[MetricDef] = &[
    // Uplink: one client's update through the encoder.
    layer(
        "core.compress_s",
        "s",
        UF,
        "op_latency_s",
        "benchmark (uplink), program (fl-round)",
    ),
    layer("core.cpu_util", "s/s", U, "op_latency_s", B),
    layer("eblc.sz2_compress_s", "s", U, "op_latency_s", B),
    layer("lossless.blosclz_compress_s", "s", U, "op_latency_s", B),
    layer("core.framing_s", "s", U, "op_latency_s", B),
    layer("eblc.max_tensor_share", "ratio", U, "op_latency_s", B),
    layer("simd.quantize_mb_s", "MB/s", U, "op_latency_s", B),
    layer("simd.shuffle_mb_s", "MB/s", U, "op_latency_s", B),
    layer("eblc.lossy_ratio", "ratio", U, "compression_ratio", B),
    layer("lossless.ratio", "ratio", U, "compression_ratio", B),
    // Aggregate: a cohort of frames into the next global model.
    layer("fl.wire.decode_s", "s", A, "op_latency_s", B),
    layer("fl.ingest.submit_s", "s", A, "op_latency_s", B),
    layer("fl.ingest.wait_s", "s", A, "op_latency_s", B),
    layer("fl.ingest.cpu_util", "s/s", A, "op_latency_s", B),
    layer("core.decompress_s", "s", AF, "op_latency_s", P),
    layer("eblc.sz2_decompress_s", "s", A, "op_latency_s", B),
    layer("lossless.blosclz_decompress_s", "s", A, "op_latency_s", B),
    layer("fl.validate.validate_s", "s", A, "op_latency_s", B),
    layer("fl.aggregate.alloc_s", "s", A, "op_latency_s", B),
    layer("fl.aggregate.fold_s", "s", A, "op_latency_s", B),
    layer("fl.aggregate.finish_s", "s", A, "op_latency_s", B),
    layer("fl.aggregate.ns_per_param", "ns", A, "op_latency_s", B),
    layer(
        "fl.aggregate.accumulator_bytes_per_param",
        "B",
        A,
        "peak_rss_mb",
        B,
    ),
    // FL round over TCP.
    layer("dnn.train_s", "s", F, "op_latency_s", P),
    layer("core.codec_share", "ratio", F, "op_latency_s", P),
    layer("fl.wire.bytes_up", "B", F, "compression_ratio", P),
    layer("fl.wire.bytes_down", "B", F, "compression_ratio", P),
    layer("fl.checkpoint.save_s", "s", F, "op_latency_s", B),
    layer("fl.checkpoint.bytes", "B", F, "peak_rss_mb", B),
    layer("dnn.final_accuracy", "ratio", F, "", P),
    // Tracing itself and the reconciliation of layers against end to end.
    layer("trace.untraced_op_s", "s", UAF, "op_latency_s", B),
    layer("trace.traced_op_s", "s", UAF, "op_latency_s", B),
    layer("trace.overhead_s", "s", UAF, "", B),
    layer("trace.layer_sum_s", "s", UAF, "op_latency_s", B),
    layer("trace.unattributed_s", "s", UAF, "op_latency_s", B),
    layer("trace.unattributed_share", "ratio", UAF, "", B),
    layer("trace.reconciled", "count", UAF, "", B),
];

/// Per-op samples of every metric a workload measured.
#[derive(Default)]
pub struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    pub fn push(&mut self, name: &'static str, v: f64) {
        self.0.entry(name).or_default().push(v);
    }

    pub fn median(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |v| crate::stats::median(v))
    }

    pub fn values(&self, name: &str) -> &[f64] {
        self.0.get(name).map_or(&[], |v| v.as_slice())
    }

    pub fn summary(&self, name: &str) -> Option<Summary> {
        self.0
            .get(name)
            .filter(|v| !v.is_empty())
            .map(|v| summarize(v))
    }
}

/// Everything one run produces.
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    /// One line per failed check (the first few are printed).
    pub failures: Vec<String>,
    pub samples: Samples,
    /// Free-form facts about the run: sizes, tolerances, reference times.
    pub notes: BTreeMap<&'static str, String>,
}

impl RunResult {
    pub fn new() -> Self {
        Self {
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            samples: Samples::default(),
            notes: BTreeMap::new(),
        }
    }

    /// Count one attempted op and whether its output checked out.
    pub fn record(&mut self, check: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = check {
            self.failed += 1;
            self.failures.push(why);
        }
    }

    pub fn note(&mut self, key: &'static str, value: impl ToString) {
        self.notes.insert(key, value.to_string());
    }
}

/// A JSON number: finite values with every digit Rust prints; anything
/// else becomes `null` (and is refused by the caller for final metrics).
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

pub struct Stamp<'a> {
    pub workload: &'a str,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub rev: &'a str,
}

/// The catalogue this run emits.
pub fn catalogue(trace: bool) -> &'static [MetricDef] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// The value emitted for one metric: its median over ops, or 0 for a
/// layer this workload does not run.
fn value_of(samples: &Samples, def: &MetricDef) -> (f64, Option<Summary>) {
    match samples.summary(def.name) {
        Some(s) => (s.median, Some(s)),
        None => (0.0, None),
    }
}

/// The report line: stamps, per-metric sample counts and spreads, the
/// layer-to-end-to-end mapping, notes and the first failures.
pub fn report_line(stamp: &Stamp, r: &RunResult) -> String {
    let mut o = String::from("{\"report\":{");
    let level = fedsz_simd::detected_level().name();
    let active = fedsz_simd::active_level().name();
    let _ = write!(
        o,
        "\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{},\"simd_detected\":{},\"simd_active\":{},\"rev\":{},",
        string(stamp.workload),
        stamp.seed,
        num(stamp.seconds),
        stamp.trace,
        crate::sys::nproc(),
        string(level),
        string(active),
        string(stamp.rev),
    );
    o.push_str("\"metrics\":{");
    let defs = catalogue(stamp.trace);
    for (i, def) in defs.iter().enumerate() {
        if i > 0 {
            o.push(',');
        }
        let (value, summary) = value_of(&r.samples, def);
        let _ = write!(
            o,
            "{}:{{\"value\":{},\"unit\":{},\"source\":{}",
            string(def.name),
            num(value),
            string(def.unit),
            string(def.source)
        );
        if !def.moves.is_empty() {
            let _ = write!(o, ",\"moves\":{}", string(def.moves));
        }
        if def.workloads != "all" {
            let _ = write!(o, ",\"workloads\":{}", string(def.workloads));
        }
        match summary {
            Some(s) => {
                let ops: Vec<String> = r.samples.values(def.name).iter().map(|v| num(*v)).collect();
                let _ = write!(
                    o,
                    ",\"samples\":[{}],\"n\":{},\"p25\":{},\"p75\":{},\"spread\":{},\"tail_pct\":{},\"tail\":{}}}",
                    ops.join(","),
                    s.n,
                    num(s.p25),
                    num(s.p75),
                    num(s.spread()),
                    num(s.tail_pct),
                    num(s.tail)
                );
            }
            None => o.push_str(",\"n\":0}"),
        }
    }
    o.push_str("},\"notes\":{");
    for (i, (k, v)) in r.notes.iter().enumerate() {
        if i > 0 {
            o.push(',');
        }
        let _ = write!(o, "{}:{}", string(k), string(v));
    }
    o.push_str("},\"failures\":[");
    for (i, f) in r.failures.iter().take(8).enumerate() {
        if i > 0 {
            o.push(',');
        }
        o.push_str(&string(f));
    }
    o.push_str("]}}");
    o
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
/// Returns `None` when a metric could not be measured as a finite number.
pub fn result_line(trace: bool, r: &RunResult) -> Option<String> {
    let mut o = String::new();
    let _ = write!(
        o,
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
        r.failed == 0 && r.attempted > 0,
        r.attempted,
        r.failed
    );
    for (i, def) in catalogue(trace).iter().enumerate() {
        let (value, _) = value_of(&r.samples, def);
        if !value.is_finite() {
            return None;
        }
        if i > 0 {
            o.push(',');
        }
        let _ = write!(
            o,
            "{}:{{\"value\":{},\"unit\":{}}}",
            string(def.name),
            num(value),
            string(def.unit)
        );
    }
    o.push_str("}}");
    Some(o)
}

/// A human-readable table for standard error.
pub fn table(stamp: &Stamp, r: &RunResult) -> String {
    let mut o = String::new();
    let _ = writeln!(
        o,
        "== {} seed={} trace={} nproc={} simd={} rev={}: attempted {} failed {}",
        stamp.workload,
        stamp.seed,
        u8::from(stamp.trace),
        crate::sys::nproc(),
        fedsz_simd::detected_level().name(),
        stamp.rev,
        r.attempted,
        r.failed
    );
    for def in catalogue(stamp.trace) {
        let (value, summary) = value_of(&r.samples, def);
        match summary {
            Some(s) => {
                let _ = writeln!(
                    o,
                    "  {:<42} {:>14.6} {:<6} n={:<3} spread={:.4}",
                    def.name,
                    value,
                    def.unit,
                    s.n,
                    s.spread()
                );
            }
            None => {
                let _ = writeln!(
                    o,
                    "  {:<42} {:>14} {:<6} (not run here)",
                    def.name, 0, def.unit
                );
            }
        }
    }
    for f in r.failures.iter().take(8) {
        let _ = writeln!(o, "  FAILED: {f}");
    }
    o
}
