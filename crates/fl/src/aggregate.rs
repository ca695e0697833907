//! FedAvg aggregation (McMahan et al. 2017) as a streaming, O(model),
//! *exactly order-independent* weighted fold.
//!
//! # Why a fixed-point superaccumulator
//!
//! The seed implementation materialized every accepted update into a
//! `Vec<(StateDict, usize)>` — O(clients × model) server memory — and
//! averaged with `f32` arithmetic in client order, which (a) blocks
//! cross-device scale, (b) silently loses weight precision once the total
//! sample count exceeds 2^24, and (c) `assert_eq!`-panicked on structure
//! mismatches inside a Rayon worker, aborting the whole server.
//!
//! [`StreamingFedAvg`] replaces all of that. Each accepted update is folded
//! into a running per-element accumulator and dropped, so server memory for
//! the aggregate is O(model) regardless of cohort size. The accumulator is
//! a Kulisch-style fixed-point superaccumulator: every `f32` is the exact
//! integer ±m·2^e (m < 2^24), so the weighted contribution `samples · m`
//! (≤ 2^56, since [`MAX_SAMPLES`] = 2^32) is added *exactly* into an
//! integer scaled by 2^149. Integer addition commutes, so the final sum —
//! and therefore the aggregate — is a pure function of the *multiset* of
//! `(update, samples)` pairs:
//!
//! * folds may settle in any arrival order (streaming ≡ materialized,
//!   bit for bit),
//! * any worker count, transport, or client interleaving produces the
//!   identical global model,
//! * no precision is lost at any cohort size or sample count: the per
//!   element result is `f32(f64(Σ nᵢ·xᵢ) / f64(Σ nᵢ))` with the sum
//!   *exact* and the `f64` readout correctly rounded.
//!
//! # Two forms of one exact sum
//!
//! Write a nonzero `f32` as `m·2^(s−149)` with `m < 2^24` and the *scaled
//! shift* `s ∈ [0, 253]` (the smallest subnormal is 2^-149, so scaled
//! values are integers). The full form holds each element in a 384-bit
//! two's-complement integer (six `u64` limbs, 48 B/param), which fits any
//! contribution at any shift. Real tensors use a narrow band of shifts,
//! so each state-dict entry starts in a cheaper form:
//!
//! * **Window** — one `i128` per element (16 B/param, all entries in one
//!   slab) holding the sum divided by `2^lo`. The window is anchored on
//!   the entry's first nonzero fold at `lo = max(0, smax + 2 − 64)`,
//!   where `smax` is the largest shift among that update's nonzero
//!   values. A contribution with shift `s ∈ [lo, lo + 64]` is added as
//!   `±(n·m) << (s − lo)`, exactly.
//! * **Wide** — the 384-bit limbs. An entry is *promoted* the first time a
//!   fold brings a nonzero value outside its window, or once the total
//!   weight passes the headroom guard below. Promotion writes each `i128`
//!   shifted by `lo` into the limbs — exact — and the entry folds there
//!   from then on.
//!
//! Both forms hold the same integer, so promotion never changes a bit of
//! the result: `finish` reads a window out as `f64(v) · 2^(lo−149)`, where
//! the `i128 → f64` cast rounds to nearest-even like the limb readout does
//! and the power-of-two scale is exact in `f64`'s normal range.
//!
//! ## Headroom proof
//!
//! *Window.* One windowed contribution is `n·m·2^(s−lo)` with
//! `m < 2^24` and `s − lo ≤ 64`, so it is below `n · 2^88`. A windowed add
//! happens only while the running total weight `Σ n` is at most 2^38 (the
//! guard), so an entry's windowed sum is below `2^88 · 2^38 = 2^126`,
//! inside the `i128` (sign bit at 2^127). Past 2^38, a fold promotes every
//! window it adds a nonzero value to, and an entry still empty at that
//! point goes straight to the wide form: no window is ever anchored past
//! the guard.
//!
//! *Wide.* One contribution is `n·m·2^s` with `n ≤ 2^32`, `m < 2^24`,
//! `s ∈ [0, 253]`, so its magnitude is below 2^(56+254) = 2^310. A
//! promoted window holds a sum of such contributions. The total weight is
//! tracked in a checked `u64` and every fold adds at least 1, so at most
//! 2^64 contributions can ever fold before the total errors out; the
//! accumulated magnitude therefore stays below 2^(310+64) = 2^374, inside
//! the 384-bit window (sign bit at 2^383) with 9 bits to spare. No
//! intermediate can overflow.

use fedsz_tensor::StateDict;

use crate::error::FlError;
use crate::validate::MAX_SAMPLES;

// The exact-product bound above needs `samples · mantissa` to fit in a
// `u64`: samples ≤ 2^32 (validate.rs) times m < 2^24 is < 2^56.
const _: () = assert!(MAX_SAMPLES <= 1 << 32);

/// Limbs per element: 384 bits spanning scaled bit positions [0, 384),
/// i.e. value magnitudes up to 2^235 with the 2^-149 scale factor.
pub(crate) const LIMBS: usize = 6;

/// A window covers scaled shifts `[lo, lo + WINDOW_SPAN]`.
const WINDOW_SPAN: u32 = 64;

/// The headroom guard: a windowed add may bring the total weight up to
/// this and no further.
const WINDOW_MAX_TOTAL: u64 = 1 << 38;

// The window headroom proof: m < 2^24, shifted by ≤ WINDOW_SPAN, times a
// total weight ≤ WINDOW_MAX_TOTAL stays below the i128 sign bit.
const _: () = assert!(24 + WINDOW_SPAN + WINDOW_MAX_TOTAL.ilog2() < 127);

/// Smallest and largest scaled shift over an entry's nonzero values, or
/// `None` when every value is ±0.0.
pub(crate) type ShiftRange = Option<(u32, u32)>;

/// The accumulator form of one state-dict entry (see the module docs).
enum Form {
    /// Nothing but zeros folded so far; the slab slice is all zero.
    Empty,
    /// The slab slice holds the sum scaled by `2^-lo`.
    Window { lo: u32 },
    /// `numel × LIMBS` little-endian limbs of 384-bit two's-complement
    /// element accumulators; the slab slice is no longer read.
    Wide(Vec<u64>),
}

/// Streaming sample-weighted FedAvg accumulator.
///
/// Fold each accepted client update with [`fold`](Self::fold) (in *any*
/// order — the result is exactly order-independent), then take the
/// aggregate with [`finish`](Self::finish). Memory is O(model): 16 bytes
/// per model parameter in the windowed form, plus 48 bytes per parameter
/// of any entry promoted to the wide form, independent of how many
/// updates fold ([`accumulator_bytes`](Self::accumulator_bytes)).
///
/// Every entry is averaged, including batch-norm running statistics and
/// counters — matching APPFL's server-side handling of full state dicts.
pub struct StreamingFedAvg {
    /// Zeroed clone of the reference model; defines the expected
    /// structure and receives the averaged values in `finish`.
    proto: StateDict,
    /// One `i128` per model parameter, entries laid out back to back in
    /// the reference's order.
    slab: Vec<i128>,
    /// Per entry: its accumulator form.
    forms: Vec<Form>,
    /// Σ samples over folded updates (checked).
    total: u64,
    /// Number of updates folded so far.
    folded: usize,
}

impl StreamingFedAvg {
    /// Empty accumulator expecting updates shaped like `reference`.
    pub fn new(reference: &StateDict) -> Self {
        Self {
            proto: reference.zeros_like(),
            slab: vec![0; reference.num_params()],
            forms: reference.entries().iter().map(|_| Form::Empty).collect(),
            total: 0,
            folded: 0,
        }
    }

    /// Number of updates folded so far.
    pub fn folded(&self) -> usize {
        self.folded
    }

    /// Σ samples over the folded updates.
    pub fn total_samples(&self) -> u64 {
        self.total
    }

    /// Bytes of accumulator state held beyond the output prototype: the
    /// 16 B/param slab plus the 384-bit limbs of every promoted entry.
    pub fn accumulator_bytes(&self) -> usize {
        let wide: usize = self
            .forms
            .iter()
            .map(|f| match f {
                Form::Wide(limbs) => std::mem::size_of_val(limbs.as_slice()),
                Form::Empty | Form::Window { .. } => 0,
            })
            .sum();
        std::mem::size_of_val(self.slab.as_slice()) + wide
    }

    /// Fold one client update, weighted by its sample count, and return —
    /// the caller can drop `update` immediately afterwards.
    ///
    /// Refuses (typed, never panics): sample counts outside
    /// `(0, MAX_SAMPLES]`, structure mismatches against the reference,
    /// non-finite values, and total-weight overflow. A refused update
    /// leaves the accumulator exactly as it was.
    pub fn fold(&mut self, update: &StateDict, samples: usize) -> Result<(), FlError> {
        let ranges = check_update(&self.proto, update, samples)?;
        let total = self
            .total
            .checked_add(samples as u64)
            .ok_or_else(|| FlError::Aggregate("total sample count overflows u64".into()))?;

        // All checks passed: from here the fold must complete so the
        // accumulator never holds a half-applied update.
        let weight = samples as u64;
        let windowed = total <= WINDOW_MAX_TOTAL;
        let mut rest = self.slab.as_mut_slice();
        for ((form, entry), range) in self.forms.iter_mut().zip(update.entries()).zip(ranges) {
            let data = entry.tensor.data();
            let (window, tail) = std::mem::take(&mut rest).split_at_mut(data.len());
            rest = tail;
            let Some((smin, smax)) = range else {
                continue; // all zeros: nothing to add
            };
            let fresh = matches!(form, Form::Empty);
            if fresh {
                *form = Form::Window {
                    lo: smax.saturating_sub(WINDOW_SPAN - 2),
                };
            }
            if let Form::Window { lo } = *form {
                if windowed && lo <= smin && smax <= lo + WINDOW_SPAN {
                    // A fresh window is still all zero: store rather than
                    // add, so its pages are first touched by a write.
                    let terms = data.iter().map(|&x| windowed_term(x, weight, lo));
                    if fresh {
                        for (acc, term) in window.iter_mut().zip(terms) {
                            *acc = term;
                        }
                    } else {
                        for (acc, term) in window.iter_mut().zip(terms) {
                            *acc += term;
                        }
                    }
                    continue;
                }
                *form = Form::Wide(promote(window, lo));
            }
            if let Form::Wide(limbs) = form {
                for (limbs, &x) in limbs.chunks_mut(LIMBS).zip(data) {
                    accumulate(limbs, x, weight);
                }
            }
        }
        self.total = total;
        self.folded += 1;
        Ok(())
    }

    /// The weighted average of every folded update, bit-identical for any
    /// fold order. Fails (typed) only when nothing was folded.
    pub fn finish(mut self) -> Result<StateDict, FlError> {
        if self.folded == 0 {
            return Err(FlError::Aggregate(
                "no updates folded: nothing to average".into(),
            ));
        }
        let total = self.total as f64;
        let mut rest = self.slab.as_slice();
        for (form, entry) in self.forms.iter().zip(self.proto.entries_mut()) {
            let out = entry.tensor.data_mut();
            let (window, tail) = rest.split_at(out.len());
            rest = tail;
            match form {
                // Only zeros folded: the exact sum is 0 and the prototype
                // already holds +0.0, which is what the readout gives.
                Form::Empty => {}
                Form::Window { lo } => {
                    let scale = pow2(*lo as i32 - 149);
                    for (out, &v) in out.iter_mut().zip(window) {
                        *out = ((v as f64 * scale) / total) as f32;
                    }
                }
                Form::Wide(limbs) => {
                    for (out, limbs) in out.iter_mut().zip(limbs.chunks(LIMBS)) {
                        *out = (readout(limbs) / total) as f32;
                    }
                }
            }
        }
        Ok(self.proto)
    }

    /// Each entry's accumulator form, in reference order.
    #[cfg(test)]
    pub(crate) fn forms(&self) -> Vec<&'static str> {
        self.forms
            .iter()
            .map(|f| match f {
                Form::Empty => "empty",
                Form::Window { .. } => "window",
                Form::Wide(_) => "wide",
            })
            .collect()
    }
}

/// Weighted average of client updates; weights are client sample counts.
///
/// The materialized counterpart of [`StreamingFedAvg`] — it folds the
/// slice through the same accumulator, so `fedavg(&updates)` is
/// bit-identical to streaming the same updates in any order. Kept for
/// callers that already hold every update (benches, property tests,
/// equivalence suites).
///
/// # Errors
/// [`FlError::Aggregate`] on an empty update set, a zero or oversized
/// sample count, mismatched structures, non-finite values, or total-weight
/// overflow — the typed replacement for the seed implementation's panics.
pub fn fedavg(updates: &[(StateDict, usize)]) -> Result<StateDict, FlError> {
    let Some((first, _)) = updates.first() else {
        return Err(FlError::Aggregate(
            "empty update set: nothing to average".into(),
        ));
    };
    let mut acc = StreamingFedAvg::new(first);
    for (sd, samples) in updates {
        acc.fold(sd, *samples)?;
    }
    acc.finish()
}

/// The structural gate every fold passes: sample count in
/// `(0, MAX_SAMPLES]`, entry-for-entry structure match against
/// `reference`, and finiteness of every value. Shared with the buffering
/// robust-aggregation modes in [`crate::robust`], which must refuse
/// exactly the updates [`StreamingFedAvg::fold`] would refuse.
///
/// The finiteness scan also yields each entry's [`ShiftRange`], which
/// [`StreamingFedAvg::fold`] uses to keep the entry in its window.
pub(crate) fn check_update(
    reference: &StateDict,
    update: &StateDict,
    samples: usize,
) -> Result<Vec<ShiftRange>, FlError> {
    if samples == 0 || samples > MAX_SAMPLES {
        return Err(FlError::Aggregate(format!(
            "update weight {samples} outside (0, {MAX_SAMPLES}]"
        )));
    }
    if update.len() != reference.len() {
        return Err(FlError::Aggregate(format!(
            "update has {} entries, reference has {}",
            update.len(),
            reference.len()
        )));
    }
    update
        .entries()
        .iter()
        .zip(reference.entries())
        .map(|(u, r)| {
            if u.name != r.name || u.kind != r.kind || u.tensor.shape() != r.tensor.shape() {
                return Err(FlError::Aggregate(format!(
                    "entry '{}' does not match reference entry '{}'",
                    u.name, r.name
                )));
            }
            scan(u.tensor.data()).ok_or_else(|| {
                FlError::Aggregate(format!("non-finite value in entry '{}'", u.name))
            })
        })
        .collect()
}

/// One pass over `data`: `None` if any value is non-finite, else the
/// scaled-shift range of its nonzero values. Branch-free, so it
/// vectorizes.
fn scan(data: &[f32]) -> Option<ShiftRange> {
    let (mut min, mut max) = (u32::MAX, 0u32);
    for &x in data {
        let bits = x.to_bits();
        let biased = (bits >> 23) & 0xFF;
        // Zeros have biased exponent 0, so they cannot raise `max`.
        max = max.max(biased);
        min = min.min(if bits << 1 == 0 { u32::MAX } else { biased });
    }
    if max == 0xFF {
        return None; // infinity or NaN
    }
    Some((min != u32::MAX).then(|| (scaled_shift(min), scaled_shift(max))))
}

/// The scaled shift `s` of a value with biased exponent `biased`:
/// subnormals and the smallest normals both sit at `s = 0`.
fn scaled_shift(biased: u32) -> u32 {
    biased.saturating_sub(1)
}

/// `x` as `(negative, m, s)` with `|x| = m · 2^(s − 149)` and `m < 2^24`;
/// ±0.0 has `m = 0` and `s = 0`. Finiteness is checked before any fold.
fn decompose(x: f32) -> (bool, u64, u32) {
    let bits = x.to_bits();
    let biased = (bits >> 23) & 0xFF;
    let mantissa = u64::from(bits & 0x7F_FFFF) | (u64::from(biased != 0) << 23);
    (bits >> 31 == 1, mantissa, scaled_shift(biased))
}

/// `weight · x` scaled by `2^-lo`, exactly: every nonzero `x` that reaches
/// a window has its scaled shift in `[lo, lo + WINDOW_SPAN]` and the
/// total weight is within the guard (module docs), so no windowed sum
/// overflows.
fn windowed_term(x: f32, weight: u64, lo: u32) -> i128 {
    let (negative, mantissa, shift) = decompose(x);
    // Zeros have m = 0; saturating keeps their shift amount in range.
    let mag = i128::from(mantissa * weight) << shift.saturating_sub(lo);
    let sign = -i128::from(negative); // 0 or -1
    (mag ^ sign) - sign
}

/// The 384-bit limbs holding exactly what a window holds: `v · 2^lo` per
/// element.
fn promote(window: &[i128], lo: u32) -> Vec<u64> {
    let mut wide = vec![0u64; window.len() * LIMBS];
    for (limbs, &v) in wide.chunks_mut(LIMBS).zip(window) {
        let mag = v.unsigned_abs();
        let apply = if v < 0 { sub_mag } else { add_mag };
        apply(limbs, lo, mag as u64);
        apply(limbs, lo + 64, (mag >> 64) as u64);
    }
    wide
}

/// Add `weight · x` exactly into a 384-bit two's-complement accumulator
/// (little-endian limbs, scaled by 2^149). Shared with the trimmed-mean
/// per-coordinate fold in [`crate::robust`], which must produce the exact
/// limb arithmetic of [`StreamingFedAvg`] so that trim k = 0 is
/// bit-identical to the plain mean.
pub(crate) fn accumulate(limbs: &mut [u64], x: f32, weight: u64) {
    let (negative, mantissa, shift) = decompose(x);
    if mantissa == 0 {
        return; // ±0.0
    }
    // mantissa < 2^24 and weight ≤ 2^32, so the product is exact in u64.
    let scaled = mantissa * weight;
    if negative {
        sub_mag(limbs, shift, scaled);
    } else {
        add_mag(limbs, shift, scaled);
    }
}

/// `limbs += m · 2^shift` (wrapping two's-complement over 384 bits; the
/// headroom proof in the module docs rules out overflow past the top).
fn add_mag(limbs: &mut [u64], shift: u32, m: u64) {
    let idx = (shift / 64) as usize;
    let bit = shift % 64;
    let wide = (m as u128) << bit;
    let (low, overflow) = limbs[idx].overflowing_add(wide as u64);
    limbs[idx] = low;
    let mut carry = (wide >> 64) as u64 + overflow as u64;
    for limb in limbs.iter_mut().skip(idx + 1) {
        if carry == 0 {
            return;
        }
        let (v, c) = limb.overflowing_add(carry);
        *limb = v;
        carry = c as u64;
    }
}

/// `limbs -= m · 2^shift` (wrapping two's-complement over 384 bits).
fn sub_mag(limbs: &mut [u64], shift: u32, m: u64) {
    let idx = (shift / 64) as usize;
    let bit = shift % 64;
    let wide = (m as u128) << bit;
    let (low, underflow) = limbs[idx].overflowing_sub(wide as u64);
    limbs[idx] = low;
    let mut borrow = (wide >> 64) as u64 + underflow as u64;
    for limb in limbs.iter_mut().skip(idx + 1) {
        if borrow == 0 {
            return;
        }
        let (v, b) = limb.overflowing_sub(borrow);
        *limb = v;
        borrow = b as u64;
    }
}

/// Exact signed value of the accumulator as a correctly-rounded `f64`
/// (round to nearest, ties to even), including the 2^-149 scale.
pub(crate) fn readout(limbs: &[u64]) -> f64 {
    let negative = limbs[LIMBS - 1] >> 63 == 1;
    let mut mag = [0u64; LIMBS];
    if negative {
        // Two's-complement negate: invert and add one.
        let mut carry = 1u64;
        for (dst, &src) in mag.iter_mut().zip(limbs) {
            let (v, c) = (!src).overflowing_add(carry);
            *dst = v;
            carry = c as u64;
        }
    } else {
        mag.copy_from_slice(limbs);
    }
    let Some(top) = (0..LIMBS).rev().find(|&k| mag[k] != 0) else {
        return 0.0;
    };
    let high_bit = top * 64 + 63 - mag[top].leading_zeros() as usize;
    let (mantissa, exp) = if high_bit <= 52 {
        (mag[0], -149i32) // ≤ 53 significant bits: exact as-is
    } else {
        let shift = high_bit - 52;
        let mut m = extract_53(&mag, shift);
        let round = bit_at(&mag, shift - 1);
        let sticky = any_bits_below(&mag, shift - 1);
        if round && (sticky || m & 1 == 1) {
            m += 1;
        }
        let mut e = shift as i32 - 149;
        if m == 1 << 53 {
            m >>= 1;
            e += 1;
        }
        (m, e)
    };
    // `mantissa` has ≤ 53 bits and the exponent stays in the normal f64
    // range (≤ 2^374 scaled by 2^-149 is far below f64::MAX), so this
    // product is exact.
    let value = mantissa as f64 * pow2(exp);
    if negative {
        -value
    } else {
        value
    }
}

/// Bits `[lo, lo + 53)` of the magnitude as a `u64`.
fn extract_53(mag: &[u64; LIMBS], lo: usize) -> u64 {
    let idx = lo / 64;
    let off = lo % 64;
    let mut v = mag[idx] >> off;
    if off != 0 && idx + 1 < LIMBS {
        v |= mag[idx + 1] << (64 - off);
    }
    v & ((1u64 << 53) - 1)
}

/// Bit `i` of the magnitude.
fn bit_at(mag: &[u64; LIMBS], i: usize) -> bool {
    (mag[i / 64] >> (i % 64)) & 1 == 1
}

/// Is any bit strictly below position `i` set?
fn any_bits_below(mag: &[u64; LIMBS], i: usize) -> bool {
    let idx = i / 64;
    let off = i % 64;
    mag.iter().take(idx).any(|&l| l != 0) || (off > 0 && mag[idx] & ((1u64 << off) - 1) != 0)
}

/// 2^e as an `f64`, for exponents in the normal range.
fn pow2(e: i32) -> f64 {
    f64::from_bits(((e + 1023) as u64) << 52)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedsz_tensor::{Tensor, TensorKind};

    fn dict(v: f32) -> StateDict {
        let mut sd = StateDict::new();
        sd.insert("w.weight", TensorKind::Weight, Tensor::from_vec(vec![v; 4]));
        sd.insert("w.bias", TensorKind::Bias, Tensor::from_vec(vec![2.0 * v]));
        sd
    }

    /// Like `dict` but with `v` in every element — `dict`'s doubled bias
    /// overflows to infinity for `v` near `f32::MAX`.
    fn flat(v: f32) -> StateDict {
        let mut sd = StateDict::new();
        sd.insert("w.weight", TensorKind::Weight, Tensor::from_vec(vec![v; 4]));
        sd.insert("w.bias", TensorKind::Bias, Tensor::from_vec(vec![v]));
        sd
    }

    #[test]
    fn equal_weights_average() {
        let agg = fedavg(&[(dict(1.0), 10), (dict(3.0), 10)]).expect("aggregate");
        assert_eq!(agg.get("w.weight").unwrap().data(), &[2.0; 4]);
        assert_eq!(agg.get("w.bias").unwrap().data(), &[4.0]);
    }

    #[test]
    fn sample_counts_weight_the_mean() {
        let agg = fedavg(&[(dict(0.0), 30), (dict(4.0), 10)]).expect("aggregate");
        assert_eq!(agg.get("w.weight").unwrap().data(), &[1.0; 4]);
    }

    #[test]
    fn single_client_is_identity() {
        let agg = fedavg(&[(dict(7.0), 5)]).expect("aggregate");
        assert_eq!(agg, dict(7.0));
        // Identity holds at the extreme weights too: the f64 readout has 29
        // guard bits over f32, so n·x/n rounds back to x exactly.
        let agg = fedavg(&[(dict(-3.625), MAX_SAMPLES)]).expect("aggregate");
        assert_eq!(agg, dict(-3.625));
        let odd = MAX_SAMPLES - 1; // odd weight: n·m needs the full 56 bits
        let agg = fedavg(&[(flat(f32::MAX), odd)]).expect("aggregate");
        assert_eq!(agg, flat(f32::MAX));
    }

    #[test]
    fn subnormals_survive_exactly() {
        let tiny = f32::from_bits(1); // 2^-149, the smallest subnormal
        let agg = fedavg(&[(dict(tiny), 3)]).expect("aggregate");
        assert_eq!(agg, dict(tiny));
        // Perfect cancellation of opposite subnormals is exact.
        let agg = fedavg(&[(dict(tiny), 7), (dict(-tiny), 7)]).expect("aggregate");
        assert_eq!(agg.get("w.weight").unwrap().data(), &[0.0; 4]);
    }

    #[test]
    fn opposite_values_cancel_exactly() {
        let agg = fedavg(&[(dict(1.0e30), 13), (dict(-1.0e30), 13)]).expect("aggregate");
        assert_eq!(agg.get("w.weight").unwrap().data(), &[0.0; 4]);
        assert_eq!(agg.get("w.bias").unwrap().data(), &[0.0]);
    }

    #[test]
    fn streaming_fold_is_order_independent_and_matches_fedavg() {
        let updates: Vec<(StateDict, usize)> = [0.3f32, -1.7, 9.25, 1e-8, -4.5e6]
            .iter()
            .enumerate()
            .map(|(i, &v)| (dict(v), 3 * i + 1))
            .collect();
        let materialized = fedavg(&updates).expect("aggregate");

        // Forward fold.
        let mut fwd = StreamingFedAvg::new(&updates[0].0);
        for (sd, n) in &updates {
            fwd.fold(sd, *n).expect("fold");
        }
        assert_eq!(fwd.folded(), updates.len());
        assert_eq!(fwd.finish().expect("finish"), materialized);

        // Reverse fold: bit-identical, not merely close.
        let mut rev = StreamingFedAvg::new(&updates[0].0);
        for (sd, n) in updates.iter().rev() {
            rev.fold(sd, *n).expect("fold");
        }
        assert_eq!(rev.finish().expect("finish"), materialized);
    }

    #[test]
    fn weights_stay_exact_beyond_two_pow_24_total_samples() {
        // The seed computed weights as `n as f32 / total as f32`. With
        // total = 2^24 + 1 that rounds to 2^24, making client 0's weight
        // exactly 1.0 and erasing client 1 entirely. The exact accumulator
        // must produce 2^24/(2^24+1), which is strictly below 1.
        let n0 = 1usize << 24;
        let agg = fedavg(&[(dict(1.0), n0), (dict(0.0), 1)]).expect("aggregate");
        let got = agg.get("w.weight").unwrap().data()[0];
        let expected = (n0 as f64 / (n0 as f64 + 1.0)) as f32;
        assert_eq!(got, expected);
        assert!(got < 1.0, "client 1's weight was lost: {got}");

        // And far beyond: two maximal-weight clients average exactly.
        let agg = fedavg(&[(dict(1.0), MAX_SAMPLES), (dict(3.0), MAX_SAMPLES)]).expect("aggregate");
        assert_eq!(agg.get("w.weight").unwrap().data(), &[2.0; 4]);
    }

    #[test]
    fn empty_update_set_is_a_typed_error() {
        let Err(FlError::Aggregate(msg)) = fedavg(&[]) else {
            panic!("empty set must be FlError::Aggregate");
        };
        assert!(msg.contains("empty"), "{msg}");
    }

    #[test]
    fn hostile_sample_counts_are_typed_errors() {
        assert!(matches!(
            fedavg(&[(dict(1.0), 0)]),
            Err(FlError::Aggregate(_))
        ));
        assert!(matches!(
            fedavg(&[(dict(1.0), MAX_SAMPLES + 1)]),
            Err(FlError::Aggregate(_))
        ));
        assert!(matches!(
            fedavg(&[(dict(1.0), usize::MAX)]),
            Err(FlError::Aggregate(_))
        ));
    }

    #[test]
    fn structure_mismatch_is_a_typed_error_not_a_panic() {
        // The seed's assert_eq! fired inside a Rayon worker here.
        let mut other = StateDict::new();
        other.insert("w.weight", TensorKind::Weight, Tensor::from_vec(vec![1.0]));
        assert!(matches!(
            fedavg(&[(dict(1.0), 4), (other.clone(), 4)]),
            Err(FlError::Aggregate(_))
        ));

        // Same entry count, different name.
        let mut renamed = dict(1.0);
        renamed.entries_mut()[1].name = "w.evil".into();
        assert!(matches!(
            fedavg(&[(dict(1.0), 4), (renamed, 4)]),
            Err(FlError::Aggregate(_))
        ));

        // Same names, different shape.
        let mut reshaped = dict(1.0);
        reshaped.entries_mut()[0].tensor = Tensor::new(vec![2, 2], vec![1.0; 4]);
        assert!(matches!(
            fedavg(&[(dict(1.0), 4), (reshaped, 4)]),
            Err(FlError::Aggregate(_))
        ));
    }

    #[test]
    fn non_finite_values_are_typed_errors() {
        for poison in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let mut sd = dict(1.0);
            sd.entries_mut()[0].tensor.data_mut()[2] = poison;
            assert!(
                matches!(fedavg(&[(sd, 4)]), Err(FlError::Aggregate(_))),
                "{poison} must be refused"
            );
        }
    }

    #[test]
    fn refused_fold_leaves_the_accumulator_untouched() {
        let mut acc = StreamingFedAvg::new(&dict(0.0));
        acc.fold(&dict(2.0), 8).expect("fold");
        let mut poisoned = dict(5.0);
        poisoned.entries_mut()[0].tensor.data_mut()[0] = f32::NAN;
        assert!(acc.fold(&poisoned, 8).is_err());
        assert_eq!(acc.folded(), 1);
        assert_eq!(acc.total_samples(), 8);
        assert_eq!(acc.finish().expect("finish"), dict(2.0));
    }

    #[test]
    fn finish_without_folds_is_a_typed_error() {
        let acc = StreamingFedAvg::new(&dict(0.0));
        assert!(matches!(acc.finish(), Err(FlError::Aggregate(_))));
    }

    #[test]
    fn extreme_magnitudes_do_not_overflow() {
        // Maximal values at maximal weights, repeatedly: the headroom
        // proof in action.
        let updates: Vec<(StateDict, usize)> = (0..64)
            .map(|i| {
                (
                    flat(if i % 2 == 0 { f32::MAX } else { f32::MIN }),
                    MAX_SAMPLES,
                )
            })
            .collect();
        let agg = fedavg(&updates).expect("aggregate");
        assert_eq!(agg.get("w.weight").unwrap().data(), &[0.0; 4]);
        assert_eq!(agg.get("w.bias").unwrap().data(), &[0.0]);
    }

    /// The pure 384-bit reference: every element through `accumulate` and
    /// `readout`, never a window.
    fn oracle(updates: &[(StateDict, usize)]) -> StateDict {
        let total: u64 = updates.iter().map(|&(_, n)| n as u64).sum();
        let mut out = updates[0].0.zeros_like();
        for (ei, entry) in out.entries_mut().iter_mut().enumerate() {
            for (j, out) in entry.tensor.data_mut().iter_mut().enumerate() {
                let mut limbs = [0u64; LIMBS];
                for (sd, n) in updates {
                    accumulate(&mut limbs, sd.entries()[ei].tensor.data()[j], *n as u64);
                }
                *out = (readout(&limbs) / total as f64) as f32;
            }
        }
        out
    }

    fn bits(sd: &StateDict) -> Vec<(String, Vec<u32>)> {
        sd.entries()
            .iter()
            .map(|e| {
                let bits = e.tensor.data().iter().map(|v| v.to_bits()).collect();
                (e.name.clone(), bits)
            })
            .collect()
    }

    fn named(entries: &[(&str, &[f32])]) -> StateDict {
        let mut sd = StateDict::new();
        for (name, values) in entries {
            sd.insert(*name, TensorKind::Weight, Tensor::from_vec(values.to_vec()));
        }
        sd
    }

    /// Every ordering of `0..n` (Heap's algorithm).
    fn permutations(n: usize) -> Vec<Vec<usize>> {
        fn heap(k: usize, p: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
            if k <= 1 {
                out.push(p.clone());
                return;
            }
            for i in 0..k {
                heap(k - 1, p, out);
                p.swap(if k.is_multiple_of(2) { i } else { 0 }, k - 1);
            }
        }
        let mut out = Vec::new();
        heap(n, &mut (0..n).collect(), &mut out);
        out
    }

    /// A cohort that exercises both accumulator forms: per entry,
    /// `narrow` stays windowed in every order, `spread` is narrow in
    /// client 0 and spans subnormal to ±f32::MAX in client 1 (so it
    /// promotes mid-stream), `sub` is all subnormal, `max` sits at
    /// ±f32::MAX at the top of the weight range, and `zero` is ±0.0 only.
    /// Client 2 is client 0 negated at the same weight (exact
    /// cancellation) and client 3 is all zeros.
    fn hostile_cohort() -> Vec<(StateDict, usize)> {
        let tiny = f32::from_bits(1);
        let sub_max = f32::from_bits(0x007F_FFFF);
        let c0 = named(&[
            ("narrow", &[1.0, -0.75, 3.5, 1e-3, 0.1, -2.0]),
            ("spread", &[1.0, 2.0, -0.5, 0.25, 1.0, 3.0]),
            ("sub", &[tiny, -tiny, 3.0 * tiny, sub_max, 0.0, -0.0]),
            ("max", &[f32::MAX, f32::MIN, f32::MAX, -0.0, 1.7e38, 1e38]),
            ("zero", &[0.0, -0.0, 0.0, 0.0, -0.0, 0.0]),
        ]);
        let c1 = named(&[
            ("narrow", &[0.5, 0.25, -1.5, 2e-3, 0.3, 1.0]),
            (
                "spread",
                &[1e-30, -f32::MAX, tiny, 1e30, -1.0, f32::MIN_POSITIVE],
            ),
            (
                "sub",
                &[tiny, tiny, -tiny, -sub_max, f32::MIN_POSITIVE, 1e-38],
            ),
            ("max", &[f32::MAX, f32::MAX, -1e38, f32::MIN, 3e38, 0.0]),
            ("zero", &[-0.0, -0.0, 0.0, -0.0, 0.0, 0.0]),
        ]);
        let mut c2 = c0.clone();
        for e in c2.entries_mut() {
            e.tensor.data_mut().iter_mut().for_each(|v| *v = -*v);
        }
        let c3 = c0.zeros_like();
        vec![
            (c0, MAX_SAMPLES),
            (c1, MAX_SAMPLES - 1),
            (c2, MAX_SAMPLES),
            (c3, 1),
        ]
    }

    #[test]
    fn windowed_fold_matches_the_384_bit_oracle_in_every_order() {
        let cohort = hostile_cohort();
        for order in permutations(cohort.len()) {
            // Every prefix of every order: covers single updates, an
            // all-zero first update, and narrow-then-wide promotion.
            for k in 1..=order.len() {
                let picked: Vec<(StateDict, usize)> =
                    order[..k].iter().map(|&i| cohort[i].clone()).collect();
                let mut acc = StreamingFedAvg::new(&picked[0].0);
                for (sd, n) in &picked {
                    acc.fold(sd, *n).expect("fold");
                }
                let got = acc.finish().expect("finish");
                assert_eq!(
                    bits(&got),
                    bits(&oracle(&picked)),
                    "order {:?}",
                    &order[..k]
                );
            }
        }
    }

    #[test]
    fn promotion_mid_stream_leaves_other_entries_windowed() {
        let cohort = hostile_cohort();
        let mut acc = StreamingFedAvg::new(&cohort[0].0);
        let params = cohort[0].0.num_params();
        assert_eq!(acc.accumulator_bytes(), 16 * params);

        acc.fold(&cohort[3].0, cohort[3].1).expect("fold");
        assert_eq!(
            acc.forms(),
            ["empty"; 5],
            "an all-zero update anchors nothing"
        );
        acc.fold(&cohort[0].0, cohort[0].1).expect("fold");
        assert_eq!(
            acc.forms(),
            ["window", "window", "window", "window", "empty"]
        );
        acc.fold(&cohort[1].0, cohort[1].1).expect("fold");
        assert_eq!(acc.forms(), ["window", "wide", "window", "window", "empty"]);
        assert_eq!(acc.accumulator_bytes(), 16 * params + 48 * 6);
        acc.fold(&cohort[2].0, cohort[2].1).expect("fold");
        let got = acc.finish().expect("finish");
        let all = [3, 0, 1, 2].map(|i| cohort[i].clone());
        assert_eq!(bits(&got), bits(&oracle(&all)));
    }

    #[test]
    fn window_edges_are_inclusive_and_one_past_promotes() {
        // 1.0 has scaled shift 126, anchoring lo = 64: 2^-62 sits exactly
        // on the low edge, 2^-63 one below it; (2 − 2^-23)·4 is the widest
        // value at the high edge lo + 64, 8.0 one above it.
        let high = f32::from_bits(0x40FF_FFFF);
        let cases: [(f32, &str); 4] = [
            (2f32.powi(-62), "window"),
            (2f32.powi(-63), "wide"),
            (high, "window"),
            (8.0, "wide"),
        ];
        for (x, form) in cases {
            let updates = [(flat(1.0), 5), (flat(x), MAX_SAMPLES)];
            let mut acc = StreamingFedAvg::new(&updates[0].0);
            for (sd, n) in &updates {
                acc.fold(sd, *n).expect("fold");
            }
            assert_eq!(acc.forms(), [form; 2], "{x:e}");
            assert_eq!(
                bits(&acc.finish().unwrap()),
                bits(&oracle(&updates)),
                "{x:e}"
            );
        }
    }

    #[test]
    fn headroom_guard_promotes_past_two_pow_38_total_samples() {
        // Each maximal windowed contribution at the high edge is just under
        // 2^120; 64 of them at MAX_SAMPLES (total exactly 2^38) stay in the
        // i128, twice as many would overflow it. `idle` takes no nonzero
        // value after the first fold, `late` none until after the guard.
        let high = f32::from_bits(0x40FF_FFFF); // scaled shift lo + 64
        let update = |hot: f32, idle: f32, late: f32| {
            named(&[
                ("hot", &[hot, -hot]),
                ("idle", &[idle]),
                ("late", &[late, 0.5 * late]),
            ])
        };
        let mut updates = vec![(update(1.0, 3.0, 0.0), MAX_SAMPLES)];
        updates.extend((1..130).map(|i| {
            (
                update(high, 0.0, if i > 64 { -2.5 } else { 0.0 }),
                MAX_SAMPLES,
            )
        }));
        // The update that trips the guard still has `late` all zero.
        updates[64].0 = update(high, 0.0, 0.0);

        let mut acc = StreamingFedAvg::new(&updates[0].0);
        for (i, (sd, n)) in updates.iter().enumerate() {
            acc.fold(sd, *n).expect("fold");
            let expect = match acc.total_samples() {
                t if t <= 1 << 38 => ["window", "window", "empty"],
                t if t == 65 << 32 => ["wide", "window", "empty"],
                _ => ["wide", "window", "wide"],
            };
            assert_eq!(acc.forms(), expect, "after fold {i}");
        }
        assert_eq!(bits(&acc.finish().unwrap()), bits(&oracle(&updates)));
    }

    #[test]
    fn readout_rounds_to_nearest_even() {
        // 2^53 + 1 is the first integer f64 cannot represent: folding
        // weights 2^30 of x=2^23+..., engineered so the exact sum needs 54
        // bits, must round like f64 does. Cross-check against the exact
        // integer arithmetic done in u128.
        let big = (1u64 << 53) + 1; // rounds to 2^53 (ties-to-even on the half case below)
        let mut limbs = vec![0u64; LIMBS];
        add_mag(&mut limbs, 149, big); // scaled by 2^149 → value = big
        assert_eq!(readout(&limbs), big as f64);
        // Explicit tie: 2^53 + 2 is representable; 2^53 + 1 ties between
        // 2^53 and 2^53 + 2 and must go to the even mantissa (2^53).
        assert_eq!(big as f64, (1u64 << 53) as f64);
        // And a sticky bit below the round bit forces rounding up.
        let mut limbs = vec![0u64; LIMBS];
        add_mag(&mut limbs, 148, (1u64 << 54) + 3); // value = 2^53 + 1.5
        assert_eq!(readout(&limbs), ((1u64 << 53) + 2) as f64);
    }
}
