//! Order-sensitive numeric execution of tactics.
//!
//! The `h884` kernels the paper profiles accumulate in FP16. FP16 addition is
//! far from associative, so the *order* in which a convolution's products are
//! summed — which depends on the tactic's tile/chunk geometry — changes the
//! result. When the autotuner picks different tactics on different builds
//! (because measured timings carry noise), the same input image can cross a
//! decision boundary differently: the paper's Finding 2.
//!
//! INT8 kernels accumulate in integers (exact and associative); their
//! numeric identity across builds is a useful control in tests.

use trtsim_gpu::kernel::Precision;
use trtsim_ir::arena::TensorArena;
use trtsim_ir::graph::{Activation, ConvParams};
use trtsim_ir::layout::{self, Layout, LANES};
use trtsim_ir::tensor::Tensor;
use trtsim_ir::weights::Weights;
use trtsim_util::f16::{round_f16, QuantParams};

use crate::lanes::{
    dot8_f16, mac8, note_scalar_values, note_vector_values, round_f16_slice, LaneConv,
};
use crate::tactic::{AccumOrder, Tactic};

/// Process-lifetime count of FP16 fast-path rollback/redo events: always
/// 0, because the vector rounder is exact on every value the kernels feed
/// it, so no FP16 path rolls back. Kept so telemetry consumers that bridge
/// the count keep a stable series.
pub fn fp16_redo_events() -> u64 {
    0
}

/// Calibration scales for INT8 execution of one layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantDesc {
    /// Input activation quantization.
    pub input: QuantParams,
    /// Weight quantization.
    pub weights: QuantParams,
}

/// Accumulates a sequence of values under a tactic's ordering and precision.
///
/// For FP16 tactics every partial sum is rounded back onto the binary16 grid
/// (h884 semantics); chunked orders flush chunk subtotals into an FP32
/// carry, reproducing split-K behaviour.
#[derive(Debug, Clone)]
pub struct Reducer {
    order: AccumOrder,
    fp16: bool,
    scratch: Vec<f32>,
}

impl Reducer {
    /// Creates a reducer for the tactic's accumulation semantics.
    pub fn for_tactic(tactic: &Tactic) -> Self {
        Self {
            order: tactic.accum,
            fp16: tactic.precision == Precision::Fp16,
            scratch: Vec::new(),
        }
    }

    /// Reduces `terms` (already precision-rounded products) to a scalar.
    pub fn reduce(&mut self, terms: &[f32]) -> f32 {
        match self.order {
            AccumOrder::Sequential => self.fold_run(terms),
            AccumOrder::Chunked(chunk) => {
                let chunk = chunk.max(1) as usize;
                let mut carry = 0.0f64; // split-K partials combine in FP32-ish carry
                for c in terms.chunks(chunk) {
                    carry += f64::from(self.fold_run(c));
                }
                carry as f32
            }
            AccumOrder::Pairwise => {
                self.scratch.clear();
                self.scratch.extend_from_slice(terms);
                while self.scratch.len() > 1 {
                    let half = self.scratch.len().div_ceil(2);
                    for i in 0..self.scratch.len() / 2 {
                        let s = self.scratch[2 * i] + self.scratch[2 * i + 1];
                        self.scratch[i] = if self.fp16 { round_f16(s) } else { s };
                    }
                    if self.scratch.len() % 2 == 1 {
                        self.scratch[half - 1] = self.scratch[self.scratch.len() - 1];
                    }
                    self.scratch.truncate(half);
                }
                self.scratch.first().copied().unwrap_or(0.0)
            }
        }
    }

    fn fold_run(&self, terms: &[f32]) -> f32 {
        let mut acc = 0.0f32;
        for &t in terms {
            acc += t;
            if self.fp16 {
                acc = round_f16(acc);
            }
        }
        acc
    }
}

/// Executes a convolution under a tactic's numeric semantics.
///
/// * FP16 tactics round inputs, weights, and every partial sum to binary16.
/// * INT8 tactics quantize inputs/weights with `quant` and accumulate exactly.
/// * FP32 tactics match the reference executor bit-for-bit.
///
/// # Panics
///
/// Panics if an INT8 tactic is used without calibration scales, or if the
/// weight blob length mismatches the parameters.
pub fn conv_forward(
    params: &ConvParams,
    input: &Tensor,
    tactic: &Tactic,
    quant: Option<&QuantDesc>,
) -> Tensor {
    let weights = params.weights.materialize();
    let bias: Vec<f32> = params.bias.iter().collect();
    match tactic.precision {
        Precision::Fp32 => trtsim_ir::ops::conv2d(input, &weights, &bias, params),
        Precision::Fp16 => conv_fp16(params, input, &weights, &bias, tactic),
        Precision::Int8 => {
            let q = quant.expect("INT8 tactic requires calibration scales");
            conv_int8(params, input, &weights, &bias, q)
        }
    }
}

/// The blocked physical layout [`PreparedConv::with_layouts`] can exploit
/// for this (params, tactic) pair, if any — the plan-time layout assignment
/// queries this when deciding which activations leave canonical CHW.
///
/// The preference comes from the tactic family's kernel descriptor
/// ([`crate::cost::preferred_layout`]): `CHWc8` for ungrouped convolutions
/// (output-channel lanes, contiguous blocked stores), `NHWC` for depthwise
/// ones (channel lanes, contiguous channel loads). `None` means the conv
/// has no lane kernel — grouped non-depthwise shapes, pairwise FP16, and
/// INT8 all stay on the legacy CHW paths.
pub fn lane_layout(params: &ConvParams, tactic: &Tactic) -> Option<Layout> {
    let prec_ok = match tactic.precision {
        Precision::Fp32 => true,
        Precision::Fp16 => tactic.accum != AccumOrder::Pairwise,
        Precision::Int8 => false,
    };
    if !prec_ok {
        return None;
    }
    let depthwise = params.groups > 1
        && params.groups == params.in_channels
        && params.groups == params.out_channels;
    match crate::cost::preferred_layout(tactic) {
        Layout::Chw => None,
        pref if params.groups == 1 => Some(pref),
        Layout::Nhwc if depthwise => Some(Layout::Nhwc),
        _ => None,
    }
}

/// Geometry of one convolution lowered against a concrete input shape.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ConvGeom {
    pub(crate) in_shape: [usize; 3],
    pub(crate) ih: usize,
    pub(crate) iw: usize,
    pub(crate) oh: usize,
    pub(crate) ow: usize,
    pub(crate) kh: usize,
    pub(crate) kw: usize,
    pub(crate) s: usize,
    pub(crate) ph: isize,
    pub(crate) pw: isize,
    pub(crate) cpg_in: usize,
    pub(crate) cpg_out: usize,
    pub(crate) out_channels: usize,
}

impl ConvGeom {
    fn of(params: &ConvParams, in_shape: [usize; 3]) -> Self {
        let [ic, ih, iw] = in_shape;
        assert_eq!(ic, params.in_channels, "conv input channel mismatch");
        let (kh, kw) = (params.kernel_h, params.kernel_w);
        let s = params.stride;
        Self {
            in_shape,
            ih,
            iw,
            oh: (ih + 2 * params.pad_h - kh) / s + 1,
            ow: (iw + 2 * params.pad_w - kw) / s + 1,
            kh,
            kw,
            s,
            ph: params.pad_h as isize,
            pw: params.pad_w as isize,
            cpg_in: params.in_channels / params.groups,
            cpg_out: params.out_channels / params.groups,
            out_channels: params.out_channels,
        }
    }
}

/// Output-pixel rectangle whose every kernel tap lands in bounds — the
/// region where precomputed input offsets are valid and no per-tap bounds
/// check is needed.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Interior {
    pub(crate) oy_lo: usize,
    pub(crate) oy_hi: usize,
    pub(crate) ox_lo: usize,
    pub(crate) ox_hi: usize,
}

impl Interior {
    fn of(params: &ConvParams, g: &ConvGeom) -> Self {
        let lo = |pad: usize, s: usize| pad.div_ceil(s);
        let hi = |dim: usize, pad: usize, k: usize, s: usize, o: usize| {
            if dim + pad >= k {
                ((dim + pad - k) / s + 1).min(o)
            } else {
                0
            }
        };
        Self {
            oy_lo: lo(params.pad_h, g.s),
            oy_hi: hi(g.ih, params.pad_h, g.kh, g.s, g.oh),
            ox_lo: lo(params.pad_w, g.s),
            ox_hi: hi(g.iw, params.pad_w, g.kw, g.s, g.ow),
        }
    }
}

/// Chunk length of a folded FP16 accumulation (`usize::MAX` = never flush).
pub(crate) fn fold_chunk(accum: AccumOrder) -> usize {
    match accum {
        AccumOrder::Chunked(c) => c.max(1) as usize,
        _ => usize::MAX,
    }
}

/// Applies an optional fused activation to one output value.
#[inline(always)]
pub(crate) fn apply_act(activation: Option<Activation>, v: f32) -> f32 {
    match activation {
        Some(a) => a.apply(v),
        None => v,
    }
}

fn conv_fp16(
    params: &ConvParams,
    input: &Tensor,
    weights: &[f32],
    bias: &[f32],
    tactic: &Tactic,
) -> Tensor {
    let g = ConvGeom::of(params, input.shape());
    // Round operands onto the binary16 grid once (engine weights and
    // activations are stored as FP16); per-term work is then one product
    // round plus one accumulate round.
    let rx: Vec<f32> = input.as_slice().iter().map(|&v| round_f16(v)).collect();
    let rw: Vec<f32> = weights.iter().map(|&v| round_f16(v)).collect();
    let mut out = Tensor::zeros([g.out_channels, g.oh, g.ow]);
    conv_fp16_dense(&g, &rx, &rw, bias, tactic, params.activation, &mut out);
    out
}

/// The dense FP16 walk over every output pixel, with operands already on the
/// binary16 grid. Shared by the per-call path ([`conv_fp16`]) and the
/// prepared fallback paths.
pub(crate) fn conv_fp16_dense(
    g: &ConvGeom,
    rx: &[f32],
    rw: &[f32],
    bias: &[f32],
    tactic: &Tactic,
    activation: Option<Activation>,
    out: &mut Tensor,
) {
    let chunk = fold_chunk(tactic.accum);
    let mut pairwise = (tactic.accum == AccumOrder::Pairwise).then(|| Reducer::for_tactic(tactic));
    let mut terms: Vec<f32> = Vec::new();
    for oc in 0..g.out_channels {
        let b = bias.get(oc).copied().unwrap_or(0.0);
        for oy in 0..g.oh {
            for ox in 0..g.ow {
                let sum = match &mut pairwise {
                    Some(reducer) => {
                        fp16_pixel_pairwise(rx, rw, g, oc, oy, ox, reducer, &mut terms)
                    }
                    None => fp16_pixel_folded(rx, rw, g, oc, oy, ox, chunk, false),
                };
                let acc = sum + b;
                *out.at_mut(oc, oy, ox) = match activation {
                    Some(a) => a.apply(acc),
                    None => acc,
                };
            }
        }
    }
}

/// One output pixel under folded (sequential/chunked) FP16 accumulation:
/// an FP16 accumulator with an FP32-ish carry at chunk flushes (split-K
/// semantics; see [`Reducer`]). Returns the pre-bias sum.
///
/// With `skip_zeros`, products against exactly-zero weights or exactly-zero
/// activations are elided; they still advance the split-K chunk position, so
/// flush boundaries land exactly where the dense walk puts them. Callers
/// must guarantee all `rx` values are finite (0·∞ would be NaN in the dense
/// walk).
#[allow(clippy::too_many_arguments)]
fn fp16_pixel_folded(
    rx: &[f32],
    rw: &[f32],
    g: &ConvGeom,
    oc: usize,
    oy: usize,
    ox: usize,
    chunk: usize,
    skip_zeros: bool,
) -> f32 {
    let group = oc / g.cpg_out;
    let w_base = oc * g.cpg_in * g.kh * g.kw;
    let mut carry = 0.0f64;
    let mut chunk_acc = 0.0f32;
    let mut in_chunk = 0usize;
    for icg in 0..g.cpg_in {
        let c_in = group * g.cpg_in + icg;
        for ky in 0..g.kh {
            let iy = (oy * g.s) as isize + ky as isize - g.ph;
            if iy < 0 || iy >= g.ih as isize {
                continue;
            }
            let row = (c_in * g.ih + iy as usize) * g.iw;
            for kx in 0..g.kw {
                let ix = (ox * g.s) as isize + kx as isize - g.pw;
                if ix < 0 || ix >= g.iw as isize {
                    continue;
                }
                let w = rw[w_base + (icg * g.kh + ky) * g.kw + kx];
                if !(skip_zeros && (w == 0.0 || rx[row + ix as usize] == 0.0)) {
                    chunk_acc = round_f16(chunk_acc + round_f16(rx[row + ix as usize] * w));
                }
                in_chunk += 1;
                if in_chunk == chunk {
                    carry += f64::from(chunk_acc);
                    chunk_acc = 0.0;
                    in_chunk = 0;
                }
            }
        }
    }
    (carry + f64::from(chunk_acc)) as f32
}

/// One output pixel under pairwise FP16 reduction (tree shape depends on
/// the term count, so no term may be elided). Returns the pre-bias sum.
#[allow(clippy::too_many_arguments)]
fn fp16_pixel_pairwise(
    rx: &[f32],
    rw: &[f32],
    g: &ConvGeom,
    oc: usize,
    oy: usize,
    ox: usize,
    reducer: &mut Reducer,
    terms: &mut Vec<f32>,
) -> f32 {
    let group = oc / g.cpg_out;
    let w_base = oc * g.cpg_in * g.kh * g.kw;
    terms.clear();
    for icg in 0..g.cpg_in {
        let c_in = group * g.cpg_in + icg;
        for ky in 0..g.kh {
            let iy = (oy * g.s) as isize + ky as isize - g.ph;
            if iy < 0 || iy >= g.ih as isize {
                continue;
            }
            let row = (c_in * g.ih + iy as usize) * g.iw;
            for kx in 0..g.kw {
                let ix = (ox * g.s) as isize + kx as isize - g.pw;
                if ix < 0 || ix >= g.iw as isize {
                    continue;
                }
                terms.push(round_f16(
                    rx[row + ix as usize] * rw[w_base + (icg * g.kh + ky) * g.kw + kx],
                ));
            }
        }
    }
    reducer.reduce(terms)
}

fn conv_int8(
    params: &ConvParams,
    input: &Tensor,
    weights: &[f32],
    bias: &[f32],
    quant: &QuantDesc,
) -> Tensor {
    let [ic, ih, iw] = input.shape();
    assert_eq!(ic, params.in_channels);
    let (kh, kw) = (params.kernel_h, params.kernel_w);
    let s = params.stride;
    let (ph, pw) = (params.pad_h as isize, params.pad_w as isize);
    let oh = (ih + 2 * params.pad_h - kh) / s + 1;
    let ow = (iw + 2 * params.pad_w - kw) / s + 1;
    let cpg_in = params.in_channels / params.groups;
    let cpg_out = params.out_channels / params.groups;

    // Quantize once up front (the engine stores INT8 weights).
    let qw: Vec<i32> = weights
        .iter()
        .map(|&w| i32::from(quant.weights.quantize(w)))
        .collect();
    let qx: Vec<i32> = input
        .as_slice()
        .iter()
        .map(|&x| i32::from(quant.input.quantize(x)))
        .collect();
    let out_scale = quant.input.scale * quant.weights.scale;

    let mut out = Tensor::zeros([params.out_channels, oh, ow]);
    for oc in 0..params.out_channels {
        let group = oc / cpg_out;
        let b = bias.get(oc).copied().unwrap_or(0.0);
        let w_base = oc * cpg_in * kh * kw;
        for oy in 0..oh {
            for ox in 0..ow {
                let mut acc: i64 = 0;
                for icg in 0..cpg_in {
                    let c_in = group * cpg_in + icg;
                    for ky in 0..kh {
                        let iy = (oy * s) as isize + ky as isize - ph;
                        if iy < 0 || iy >= ih as isize {
                            continue;
                        }
                        for kx in 0..kw {
                            let ix = (ox * s) as isize + kx as isize - pw;
                            if ix < 0 || ix >= iw as isize {
                                continue;
                            }
                            let xi = qx[(c_in * ih + iy as usize) * iw + ix as usize];
                            let wi = qw[w_base + (icg * kh + ky) * kw + kx];
                            acc += i64::from(xi) * i64::from(wi);
                        }
                    }
                }
                let v = acc as f32 * out_scale + b;
                *out.at_mut(oc, oy, ox) = match params.activation {
                    Some(a) => a.apply(v),
                    None => v,
                };
            }
        }
    }
    out
}

/// Executes a fully-connected layer under a tactic's numeric semantics
/// (FP16 tactics round operands and partials to binary16 in tactic order).
///
/// # Panics
///
/// Panics if `weights.len() != out_features · input.len()` or an INT8 tactic
/// is used (FC layers in the catalog are FP16/FP32 only).
pub fn fc_forward(
    input: &Tensor,
    weights: &[f32],
    bias: &[f32],
    out_features: usize,
    activation: Option<Activation>,
    tactic: &Tactic,
) -> Tensor {
    match tactic.precision {
        Precision::Fp32 => {
            trtsim_ir::ops::inner_product(input, weights, bias, out_features, activation)
        }
        Precision::Int8 => panic!("INT8 fully-connected tactics are not in the catalog"),
        Precision::Fp16 => {
            let in_features = input.len();
            assert_eq!(
                weights.len(),
                out_features * in_features,
                "fc weight mismatch"
            );
            let mut reducer = Reducer::for_tactic(tactic);
            let mut terms = Vec::with_capacity(in_features);
            let x = input.as_slice();
            let mut out = Tensor::zeros([out_features, 1, 1]);
            for o in 0..out_features {
                terms.clear();
                let row = &weights[o * in_features..(o + 1) * in_features];
                for (xi, wi) in x.iter().zip(row.iter()) {
                    terms.push(round_f16(round_f16(*xi) * round_f16(*wi)));
                }
                let acc = reducer.reduce(&terms) + bias.get(o).copied().unwrap_or(0.0);
                *out.at_mut(o, 0, 0) = match activation {
                    Some(a) => a.apply(acc),
                    None => acc,
                };
            }
            out
        }
    }
}

/// Rounds an activation tensor onto a precision's grid (kernel-boundary
/// fake quantization for non-GEMM layers in reduced-precision engines).
pub fn apply_precision(tensor: &mut Tensor, precision: Precision) {
    match precision {
        Precision::Fp32 => {}
        Precision::Fp16 => {
            round_f16_slice(tensor.as_mut_slice());
        }
        Precision::Int8 => {
            let q = QuantParams::calibrate(tensor.as_slice());
            tensor.map_inplace(|x| q.round_trip(x));
        }
    }
}

/// One live (nonzero-weight) tap of a prepared convolution kernel.
#[derive(Debug, Clone, Copy)]
struct SparseEntry<W> {
    /// Input offset from `(oy·s)·iw + ox·s` — valid only for interior
    /// output pixels, where every tap is in bounds.
    delta: isize,
    /// Absolute input channel (for bounds-checked border evaluation).
    c_in: usize,
    /// Tap offsets relative to the window origin, padding applied.
    dy: isize,
    dx: isize,
    /// FP16 split-K: a chunk boundary falls between the previous live term
    /// and this one (counting the elided zeros), so the FP16 accumulator
    /// must flush into the carry before this term.
    flush_before: bool,
    w: W,
}

/// Extracts the nonzero taps of every output channel, in the exact order
/// the dense walk visits them, with statically-resolved split-K flush
/// points.
fn build_sparse<W: Copy>(
    g: &ConvGeom,
    dense: &[W],
    chunk: usize,
    is_zero: impl Fn(W) -> bool,
) -> Vec<Vec<SparseEntry<W>>> {
    (0..g.out_channels)
        .map(|oc| {
            let group = oc / g.cpg_out;
            let w_base = oc * g.cpg_in * g.kh * g.kw;
            let mut entries = Vec::new();
            // Ordinal of the current / previous-live tap among the window's
            // terms (interior pixels see every tap, so ordinals are static).
            let mut pos = 0usize;
            let mut last_live = 0usize;
            for icg in 0..g.cpg_in {
                let c_in = group * g.cpg_in + icg;
                for ky in 0..g.kh {
                    for kx in 0..g.kw {
                        pos += 1;
                        let w = dense[w_base + (icg * g.kh + ky) * g.kw + kx];
                        if is_zero(w) {
                            continue;
                        }
                        // Chunk boundaries fall after ordinals chunk, 2·chunk,
                        // …; any boundary in [last_live, pos) forces a flush
                        // before this term. `boundary` is the largest one not
                        // past `pos - 1`.
                        let boundary = (pos - 1) / chunk * chunk;
                        let dy = ky as isize - g.ph;
                        let dx = kx as isize - g.pw;
                        entries.push(SparseEntry {
                            delta: (c_in * g.ih * g.iw) as isize + dy * g.iw as isize + dx,
                            c_in,
                            dy,
                            dx,
                            flush_before: boundary > 0 && boundary >= last_live,
                            w,
                        });
                        last_live = pos;
                    }
                }
            }
            entries
        })
        .collect()
}

/// Per-precision lowering of a prepared convolution.
#[derive(Debug, Clone)]
enum PreparedKind {
    /// SIMD lane-array micro-kernels ([`crate::lanes`]): 8 channels advance
    /// in lockstep, operands in per-tactic physical layouts. No zero
    /// elision — dense vector arithmetic beats sparse scalar walks by a
    /// wide margin on the catalog's weight densities.
    Lanes(LaneConv),
    /// FP32 sequential: reference order with zero terms elided.
    Fp32 {
        dense: Vec<f32>,
        sparse: Vec<Vec<SparseEntry<f32>>>,
    },
    /// FP16 sequential/chunked: weights pre-rounded to binary16, zero terms
    /// elided with statically-resolved split-K flush points.
    Fp16 {
        rdense: Vec<f32>,
        sparse: Vec<Vec<SparseEntry<f32>>>,
        chunk: usize,
    },
    /// FP16 pairwise: the tree shape depends on the term count, so nothing
    /// can be elided; prepared weights still save the per-call weight
    /// rounding pass.
    Fp16Pairwise { rdense: Vec<f32> },
    /// INT8: integer accumulation is exact and associative, so zero
    /// skipping needs no finiteness guard at all.
    Int8 {
        sparse: Vec<Vec<SparseEntry<i32>>>,
        input: QuantParams,
        out_scale: f32,
    },
}

/// A convolution pre-lowered for repeated execution under a fixed tactic.
///
/// Construction does all per-layer work once — weight materialization,
/// FP16 rounding / INT8 quantization of the weight blob, and extraction of
/// the *nonzero* taps with precomputed input offsets and split-K flush
/// points — so each [`PreparedConv::run`] call only walks live terms.
/// Pruned engines (the accuracy experiments zero ~40 % of trained weights)
/// skip the dead multiplies entirely while staying bit-identical to
/// [`conv_forward`] under the tactic's accumulation order.
///
/// # Examples
///
/// ```
/// use trtsim_ir::arena::TensorArena;
/// use trtsim_ir::graph::LayerKind;
/// use trtsim_ir::tensor::Tensor;
/// use trtsim_kernels::numeric::{conv_forward, PreparedConv};
/// use trtsim_kernels::tactic::Tactic;
///
/// let params = match LayerKind::conv_seeded(4, 3, 3, 1, 1, 7) {
///     LayerKind::Conv(c) => c,
///     _ => unreachable!(),
/// };
/// let input = Tensor::from_fn([3, 8, 8], |c, y, x| (c + y + x) as f32 * 0.1);
/// let tactic = Tactic::conv_hmma(128, 64, "");
///
/// let prepared = PreparedConv::new(&params, input.shape(), &tactic, None);
/// let fast = prepared.run(&params, &input, &mut TensorArena::new());
/// assert_eq!(fast, conv_forward(&params, &input, &tactic, None));
/// ```
#[derive(Debug, Clone)]
pub struct PreparedConv {
    geom: ConvGeom,
    interior: Interior,
    bias: Vec<f32>,
    tactic: Tactic,
    kind: PreparedKind,
    layout_in: Layout,
    layout_out: Layout,
}

impl PreparedConv {
    /// Lowers `params` under `tactic` for inputs of shape `in_shape`.
    ///
    /// # Panics
    ///
    /// Panics on an INT8 tactic without calibration scales, on a weight
    /// blob length mismatch, or on an input channel mismatch — the same
    /// conditions under which [`conv_forward`] panics.
    pub fn new(
        params: &ConvParams,
        in_shape: [usize; 3],
        tactic: &Tactic,
        quant: Option<&QuantDesc>,
    ) -> Self {
        Self::with_layouts(params, in_shape, tactic, quant, Layout::Chw, Layout::Chw)
    }

    /// Like [`PreparedConv::new`], but with the input consumed and the
    /// output produced in explicit physical layouts.
    ///
    /// `in_shape` is always the *logical* CHW shape; [`PreparedConv::run`]
    /// then expects the input tensor in `layout_in`'s physical shape and
    /// returns the output in `layout_out`'s. Results are bit-identical to
    /// the canonical layouts for every assignment (layout conversion is a
    /// pure permutation and the lane kernels preserve accumulation order).
    ///
    /// # Panics
    ///
    /// Panics (in addition to [`PreparedConv::new`]'s conditions) when a
    /// non-CHW layout is requested for a conv that has no lane kernel
    /// (see [`lane_layout`]) — the legacy prepared paths are CHW-only.
    pub fn with_layouts(
        params: &ConvParams,
        in_shape: [usize; 3],
        tactic: &Tactic,
        quant: Option<&QuantDesc>,
        layout_in: Layout,
        layout_out: Layout,
    ) -> Self {
        let geom = ConvGeom::of(params, in_shape);
        let interior = Interior::of(params, &geom);
        let dense = params.weights.materialize().into_owned();
        assert_eq!(
            dense.len(),
            params.expected_weight_len(),
            "conv weight length mismatch"
        );
        let bias: Vec<f32> = params.bias.iter().collect();
        if let Some(lanes) =
            LaneConv::build(params, &geom, tactic, &dense, &bias, layout_in, layout_out)
        {
            return Self {
                geom,
                interior,
                bias,
                tactic: tactic.clone(),
                kind: PreparedKind::Lanes(lanes),
                layout_in,
                layout_out,
            };
        }
        assert!(
            layout_in == Layout::Chw && layout_out == Layout::Chw,
            "legacy prepared conv paths are CHW-only"
        );
        let kind = match tactic.precision {
            Precision::Fp32 => {
                let sparse = build_sparse(&geom, &dense, usize::MAX, |w| w == 0.0);
                PreparedKind::Fp32 { dense, sparse }
            }
            Precision::Fp16 => {
                let rdense: Vec<f32> = dense.iter().map(|&v| round_f16(v)).collect();
                if tactic.accum == AccumOrder::Pairwise {
                    PreparedKind::Fp16Pairwise { rdense }
                } else {
                    let chunk = fold_chunk(tactic.accum);
                    let sparse = build_sparse(&geom, &rdense, chunk, |w| w == 0.0);
                    PreparedKind::Fp16 {
                        rdense,
                        sparse,
                        chunk,
                    }
                }
            }
            Precision::Int8 => {
                let q = quant.expect("INT8 tactic requires calibration scales");
                let qdense: Vec<i32> = dense
                    .iter()
                    .map(|&w| i32::from(q.weights.quantize(w)))
                    .collect();
                let sparse = build_sparse(&geom, &qdense, usize::MAX, |w| w == 0);
                PreparedKind::Int8 {
                    sparse,
                    input: q.input,
                    out_scale: q.input.scale * q.weights.scale,
                }
            }
        };
        Self {
            geom,
            interior,
            bias,
            tactic: tactic.clone(),
            kind,
            layout_in,
            layout_out,
        }
    }

    /// Output shape for the prepared input shape.
    pub fn out_shape(&self) -> [usize; 3] {
        [self.geom.out_channels, self.geom.oh, self.geom.ow]
    }

    /// The (input, output) physical layouts this conv was prepared for.
    pub fn layouts(&self) -> (Layout, Layout) {
        (self.layout_in, self.layout_out)
    }

    /// Physical shape [`PreparedConv::run`] expects its input tensor in.
    pub fn in_physical_shape(&self) -> [usize; 3] {
        self.layout_in.physical_shape(self.geom.in_shape)
    }

    /// Physical shape of the tensor [`PreparedConv::run`] returns.
    pub fn out_physical_shape(&self) -> [usize; 3] {
        self.layout_out.physical_shape(self.out_shape())
    }

    /// Multiply terms evaluated per interior output pixel after zero
    /// elision, summed over output channels (the dense count for pairwise
    /// tactics and for the lane kernels, which trade elision for vector
    /// arithmetic).
    pub fn live_terms(&self) -> usize {
        match &self.kind {
            PreparedKind::Fp32 { sparse, .. } | PreparedKind::Fp16 { sparse, .. } => {
                sparse.iter().map(Vec::len).sum()
            }
            PreparedKind::Int8 { sparse, .. } => sparse.iter().map(Vec::len).sum(),
            PreparedKind::Fp16Pairwise { .. } | PreparedKind::Lanes(_) => self.dense_terms(),
        }
    }

    /// Multiply terms per interior output pixel before zero elision, summed
    /// over output channels.
    pub fn dense_terms(&self) -> usize {
        self.geom.out_channels * self.geom.cpg_in * self.geom.kh * self.geom.kw
    }

    /// Executes the convolution; bit-identical (under `f32` equality) to
    /// [`conv_forward`] with the same tactic and calibration, modulo the
    /// prepared layouts' pure permutation of element positions.
    ///
    /// # Panics
    ///
    /// Panics if `input` does not have the prepared physical shape.
    pub fn run(&self, params: &ConvParams, input: &Tensor, arena: &mut TensorArena) -> Tensor {
        assert_eq!(
            input.shape(),
            self.in_physical_shape(),
            "prepared conv input shape mismatch"
        );
        if let PreparedKind::Lanes(lanes) = &self.kind {
            return self.run_lanes(lanes, params, input, arena);
        }
        // Every value the legacy kinds produce comes from a scalar walk.
        note_scalar_values((self.geom.out_channels * self.geom.oh * self.geom.ow) as u64);
        let mut out = arena.alloc_zeroed(self.out_shape());
        match &self.kind {
            PreparedKind::Lanes(_) => unreachable!("handled above"),
            PreparedKind::Fp32 { dense, sparse } => {
                if input.as_slice().iter().all(|v| v.is_finite()) {
                    self.run_f32(sparse, input.as_slice(), params.activation, &mut out);
                } else {
                    // 0·∞ = NaN: zero elision is unsound, take the dense path.
                    arena.release(out);
                    return trtsim_ir::ops::conv2d(input, dense, &self.bias, params);
                }
            }
            PreparedKind::Fp16 {
                rdense,
                sparse,
                chunk,
            } => {
                let mut rx = arena.take_buffer(input.len());
                let mut finite = true;
                for (r, &v) in rx.iter_mut().zip(input.as_slice()) {
                    *r = round_f16(v);
                    finite &= r.is_finite();
                }
                if finite {
                    self.run_f16(sparse, rdense, &rx, *chunk, params.activation, &mut out);
                } else {
                    conv_fp16_dense(
                        &self.geom,
                        &rx,
                        rdense,
                        &self.bias,
                        &self.tactic,
                        params.activation,
                        &mut out,
                    );
                }
                arena.give_buffer(rx);
            }
            PreparedKind::Fp16Pairwise { rdense } => {
                let mut rx = arena.take_buffer(input.len());
                for (r, &v) in rx.iter_mut().zip(input.as_slice()) {
                    *r = round_f16(v);
                }
                conv_fp16_dense(
                    &self.geom,
                    &rx,
                    rdense,
                    &self.bias,
                    &self.tactic,
                    params.activation,
                    &mut out,
                );
                arena.give_buffer(rx);
            }
            PreparedKind::Int8 {
                sparse,
                input: qin,
                out_scale,
            } => {
                let qx: Vec<i32> = input
                    .as_slice()
                    .iter()
                    .map(|&x| i32::from(qin.quantize(x)))
                    .collect();
                self.run_i8(sparse, &qx, *out_scale, params.activation, &mut out);
            }
        }
        out
    }

    /// The lane-array fast path. FP32 runs unconditionally (exact reference
    /// order, non-finite values propagate identically); FP16 rounds the
    /// input onto the binary16 grid first and drops to the exact dense CHW
    /// walk when the input or weights carry non-finite values, so NaN
    /// payloads propagate in the reference order.
    fn run_lanes(
        &self,
        lanes: &LaneConv,
        params: &ConvParams,
        input: &Tensor,
        arena: &mut TensorArena,
    ) -> Tensor {
        let mut out = arena.alloc_zeroed(self.out_physical_shape());
        if !lanes.fp16 {
            lanes.run(
                &self.geom,
                &self.interior,
                params.activation,
                input.as_slice(),
                out.as_mut_slice(),
            );
            return out;
        }
        let mut rx = arena.take_buffer(input.len());
        rx.copy_from_slice(input.as_slice());
        let finite = round_f16_slice(&mut rx);
        if finite && !lanes.force_dense {
            lanes.run(
                &self.geom,
                &self.interior,
                params.activation,
                &rx,
                out.as_mut_slice(),
            );
        } else {
            // Exact dense fallback in canonical CHW, converted at the edges
            // (conversion is a pure permutation, so bit-exactness holds).
            note_scalar_values((self.geom.out_channels * self.geom.oh * self.geom.ow) as u64);
            let logical_in = self.geom.in_shape;
            let mut chw = arena.take_buffer(logical_in.iter().product());
            if lanes.layout_in == Layout::Chw {
                chw.copy_from_slice(&rx);
            } else {
                layout::convert_into(&rx, logical_in, lanes.layout_in, Layout::Chw, &mut chw);
            }
            let mut tmp = arena.alloc_zeroed(self.out_shape());
            conv_fp16_dense(
                &self.geom,
                &chw,
                &lanes.rdense,
                &self.bias,
                &self.tactic,
                params.activation,
                &mut tmp,
            );
            if lanes.layout_out == Layout::Chw {
                out.as_mut_slice().copy_from_slice(tmp.as_slice());
            } else {
                layout::convert_into(
                    tmp.as_slice(),
                    self.out_shape(),
                    Layout::Chw,
                    lanes.layout_out,
                    out.as_mut_slice(),
                );
            }
            arena.release(tmp);
            arena.give_buffer(chw);
        }
        arena.give_buffer(rx);
        out
    }

    /// Offset of the first interior pixel of output row `oy` in the input
    /// image plane (channel offsets live in each entry's `delta`).
    fn row_base(&self, oy: usize) -> isize {
        ((oy * self.geom.s) * self.geom.iw + self.interior.ox_lo * self.geom.s) as isize
    }

    fn run_f32(
        &self,
        sparse: &[Vec<SparseEntry<f32>>],
        x: &[f32],
        activation: Option<Activation>,
        out: &mut Tensor,
    ) {
        let g = self.geom;
        let it = self.interior;
        let width = it.ox_hi.saturating_sub(it.ox_lo);
        let mut acc_row = vec![0.0f32; width];
        for (oc, entries) in sparse.iter().enumerate() {
            let b = self.bias.get(oc).copied().unwrap_or(0.0);
            for oy in 0..g.oh {
                let interior_row = width > 0 && oy >= it.oy_lo && oy < it.oy_hi;
                if interior_row {
                    // Entry-outer over the whole row: each entry touches a
                    // contiguous (stride 1) or strided input span, which the
                    // compiler vectorizes across output pixels.
                    acc_row.fill(b);
                    for e in entries {
                        let src = (self.row_base(oy) + e.delta) as usize;
                        if g.s == 1 {
                            for (a, &xv) in acc_row.iter_mut().zip(&x[src..src + width]) {
                                *a += xv * e.w;
                            }
                        } else {
                            for (i, a) in acc_row.iter_mut().enumerate() {
                                *a += x[src + i * g.s] * e.w;
                            }
                        }
                    }
                    for (i, ox) in (it.ox_lo..it.ox_hi).enumerate() {
                        *out.at_mut(oc, oy, ox) = apply_act(activation, acc_row[i]);
                    }
                }
                let (left, right) = if interior_row {
                    (0..it.ox_lo, it.ox_hi..g.ow)
                } else {
                    (0..g.ow, 0..0)
                };
                for ox in left.chain(right) {
                    let mut acc = b;
                    for e in entries {
                        let iy = (oy * g.s) as isize + e.dy;
                        let ix = (ox * g.s) as isize + e.dx;
                        if iy < 0 || iy >= g.ih as isize || ix < 0 || ix >= g.iw as isize {
                            continue;
                        }
                        let xv = x[(e.c_in * g.ih + iy as usize) * g.iw + ix as usize];
                        if xv != 0.0 {
                            acc += xv * e.w;
                        }
                    }
                    *out.at_mut(oc, oy, ox) = apply_act(activation, acc);
                }
            }
        }
    }

    fn run_f16(
        &self,
        sparse: &[Vec<SparseEntry<f32>>],
        rdense: &[f32],
        rx: &[f32],
        chunk: usize,
        activation: Option<Activation>,
        out: &mut Tensor,
    ) {
        let g = self.geom;
        let it = self.interior;
        let width = it.ox_hi.saturating_sub(it.ox_lo);
        let mut acc_row = vec![0.0f32; width];
        let mut carry_row = vec![0.0f64; width];
        for (oc, entries) in sparse.iter().enumerate() {
            let b = self.bias.get(oc).copied().unwrap_or(0.0);
            for oy in 0..g.oh {
                let interior_row = width > 0 && oy >= it.oy_lo && oy < it.oy_hi;
                if interior_row {
                    self.f16_interior_row(entries, rx, oy, &mut acc_row, &mut carry_row);
                    for (i, ox) in (it.ox_lo..it.ox_hi).enumerate() {
                        let sum = (carry_row[i] + f64::from(acc_row[i])) as f32;
                        *out.at_mut(oc, oy, ox) = apply_act(activation, sum + b);
                    }
                }
                let (left, right) = if interior_row {
                    (0..it.ox_lo, it.ox_hi..g.ow)
                } else {
                    (0..g.ow, 0..0)
                };
                for ox in left.chain(right) {
                    // Border pixels drop taps dynamically, so chunk
                    // positions can't be resolved statically; walk the
                    // dense order, skipping zero-weight multiplies.
                    let sum = fp16_pixel_folded(rx, rdense, &g, oc, oy, ox, chunk, true);
                    *out.at_mut(oc, oy, ox) = apply_act(activation, sum + b);
                }
            }
        }
    }

    /// One whole interior output row of a folded FP16 convolution,
    /// entry-outer: each nonzero tap streams across every pixel in the row,
    /// 8 pixels at a time through the exact 8-lane FP16 multiply-add.
    /// The result is bit-identical to the dense per-pixel walk: zero taps
    /// are *not* skipped here, so even ±0 signs match the naive order.
    fn f16_interior_row(
        &self,
        entries: &[SparseEntry<f32>],
        rx: &[f32],
        oy: usize,
        acc: &mut [f32],
        carry: &mut [f64],
    ) {
        let s = self.geom.s;
        acc.fill(0.0);
        carry.fill(0.0);
        for e in entries {
            if e.flush_before {
                for (c, a) in carry.iter_mut().zip(acc.iter_mut()) {
                    *c += f64::from(*a);
                    *a = 0.0;
                }
            }
            let w = e.w;
            let src = (self.row_base(oy) + e.delta) as usize;
            let done = acc.len() / LANES * LANES;
            for (i, a) in acc.chunks_exact_mut(LANES).enumerate() {
                let x0 = src + i * LANES * s;
                let xv = std::array::from_fn(|l| rx[x0 + l * s]);
                let prev: [f32; LANES] = a.try_into().expect("chunk of LANES");
                a.copy_from_slice(&mac8::<true>(prev, xv, [w; LANES]));
            }
            for (i, a) in acc.iter_mut().enumerate().skip(done) {
                *a = round_f16(*a + round_f16(rx[src + i * s] * w));
            }
        }
    }

    fn run_i8(
        &self,
        sparse: &[Vec<SparseEntry<i32>>],
        qx: &[i32],
        out_scale: f32,
        activation: Option<Activation>,
        out: &mut Tensor,
    ) {
        let g = self.geom;
        let it = self.interior;
        let width = it.ox_hi.saturating_sub(it.ox_lo);
        let mut acc_row = vec![0i64; width];
        for (oc, entries) in sparse.iter().enumerate() {
            let b = self.bias.get(oc).copied().unwrap_or(0.0);
            for oy in 0..g.oh {
                let interior_row = width > 0 && oy >= it.oy_lo && oy < it.oy_hi;
                if interior_row {
                    // Integer accumulation is exact and associative, so the
                    // entry-outer row order needs no rounding care at all.
                    acc_row.fill(0);
                    for e in entries {
                        let src = (self.row_base(oy) + e.delta) as usize;
                        let w = i64::from(e.w);
                        if g.s == 1 {
                            for (a, &xv) in acc_row.iter_mut().zip(&qx[src..src + width]) {
                                *a += i64::from(xv) * w;
                            }
                        } else {
                            for (i, a) in acc_row.iter_mut().enumerate() {
                                *a += i64::from(qx[src + i * g.s]) * w;
                            }
                        }
                    }
                    for (i, ox) in (it.ox_lo..it.ox_hi).enumerate() {
                        let v = acc_row[i] as f32 * out_scale + b;
                        *out.at_mut(oc, oy, ox) = apply_act(activation, v);
                    }
                }
                let (left, right) = if interior_row {
                    (0..it.ox_lo, it.ox_hi..g.ow)
                } else {
                    (0..g.ow, 0..0)
                };
                for ox in left.chain(right) {
                    let mut acc: i64 = 0;
                    for e in entries {
                        let iy = (oy * g.s) as isize + e.dy;
                        let ix = (ox * g.s) as isize + e.dx;
                        if iy < 0 || iy >= g.ih as isize || ix < 0 || ix >= g.iw as isize {
                            continue;
                        }
                        let xv = qx[(e.c_in * g.ih + iy as usize) * g.iw + ix as usize];
                        if xv != 0 {
                            acc += i64::from(xv) * i64::from(e.w);
                        }
                    }
                    let v = acc as f32 * out_scale + b;
                    *out.at_mut(oc, oy, ox) = apply_act(activation, v);
                }
            }
        }
    }
}

/// A fully-connected layer pre-lowered for repeated execution.
///
/// For FP16 tactics the weight matrix is rounded to binary16 once at
/// construction; each [`PreparedFc::run`] call then rounds the input vector
/// once and performs a single product round per term — bit-identical to
/// [`fc_forward`], which re-rounds the weights and wraps every operand in a
/// fresh round on every call.
#[derive(Debug, Clone)]
pub struct PreparedFc {
    /// FP16: pre-rounded; FP32: raw.
    weights: Vec<f32>,
    bias: Vec<f32>,
    out_features: usize,
    tactic: Tactic,
    lanes: Option<FcLanes>,
}

/// FC weights repacked for the lane micro-kernel: `[block][tap]` gives the
/// weight lanes of 8 consecutive output features at input tap `tap`, so the
/// inner loop broadcasts one input value against a contiguous vector.
#[derive(Debug, Clone)]
struct FcLanes {
    /// Split-K flush period in taps (`usize::MAX`: never flush).
    chunk: usize,
    w: Vec<Vec<[f32; LANES]>>,
    bias_v: Vec<[f32; LANES]>,
}

impl FcLanes {
    fn build(weights: &[f32], bias: &[f32], out_features: usize, chunk: usize) -> Self {
        let in_features = weights.len() / out_features.max(1);
        let blocks = out_features.div_ceil(LANES);
        let mut w = Vec::with_capacity(blocks);
        let mut bias_v = Vec::with_capacity(blocks);
        for b in 0..blocks {
            let mut wb = vec![[0.0f32; LANES]; in_features];
            let mut bv = [0.0f32; LANES];
            for l in 0..LANES {
                let o = b * LANES + l;
                if o >= out_features {
                    break;
                }
                bv[l] = bias.get(o).copied().unwrap_or(0.0);
                for (tap, lane) in wb.iter_mut().enumerate() {
                    lane[l] = weights[o * in_features + tap];
                }
            }
            w.push(wb);
            bias_v.push(bv);
        }
        Self { chunk, w, bias_v }
    }
}

impl PreparedFc {
    /// Lowers an FC layer's weights under `tactic`.
    ///
    /// # Panics
    ///
    /// Panics on an INT8 tactic, like [`fc_forward`] (FC layers in the
    /// catalog are FP16/FP32 only).
    pub fn new(weights: &Weights, bias: &Weights, out_features: usize, tactic: &Tactic) -> Self {
        let w = weights.materialize();
        let weights: Vec<f32> = match tactic.precision {
            Precision::Fp32 => w.into_owned(),
            Precision::Fp16 => w.iter().map(|&v| round_f16(v)).collect(),
            Precision::Int8 => panic!("INT8 fully-connected tactics are not in the catalog"),
        };
        let bias: Vec<f32> = bias.iter().collect();
        let lanes = match tactic.precision {
            Precision::Fp32 => Some(FcLanes::build(&weights, &bias, out_features, usize::MAX)),
            // Pairwise trees can't lane (shape depends on term count);
            // non-finite rounded weights take the exact reducer walk.
            Precision::Fp16
                if tactic.accum != AccumOrder::Pairwise
                    && weights.iter().all(|v| v.is_finite()) =>
            {
                Some(FcLanes::build(
                    &weights,
                    &bias,
                    out_features,
                    fold_chunk(tactic.accum),
                ))
            }
            _ => None,
        };
        Self {
            weights,
            bias,
            out_features,
            tactic: tactic.clone(),
            lanes,
        }
    }

    /// Executes the layer; bit-identical to [`fc_forward`].
    ///
    /// # Panics
    ///
    /// Panics if the weight length does not match
    /// `out_features · input.len()`.
    pub fn run(
        &self,
        input: &Tensor,
        activation: Option<Activation>,
        arena: &mut TensorArena,
    ) -> Tensor {
        let in_features = input.len();
        assert_eq!(
            self.weights.len(),
            self.out_features * in_features,
            "fc weight mismatch"
        );
        if self.tactic.precision == Precision::Fp32 {
            // FP32 lanes replay the reference order exactly (bias-start,
            // sequential taps), so they need no finiteness guard.
            if let Some(lanes) = &self.lanes {
                let mut out = arena.alloc_zeroed([self.out_features, 1, 1]);
                self.run_lanes_f32(lanes, input.as_slice(), activation, &mut out);
                return out;
            }
            note_scalar_values(self.out_features as u64);
            return trtsim_ir::ops::inner_product(
                input,
                &self.weights,
                &self.bias,
                self.out_features,
                activation,
            );
        }
        let mut rx = arena.take_buffer(in_features);
        rx.copy_from_slice(input.as_slice());
        let finite = round_f16_slice(&mut rx);
        let mut out = arena.alloc_zeroed([self.out_features, 1, 1]);
        match &self.lanes {
            // Non-finite inputs take the exact reducer walk, which keeps
            // the reference's NaN propagation order.
            Some(lanes) if finite => self.run_lanes_f16(lanes, &rx, activation, &mut out),
            _ => {
                note_scalar_values(self.out_features as u64);
                self.run_reducer_f16(&rx, activation, &mut out);
            }
        }
        arena.give_buffer(rx);
        out
    }

    /// FP32 lane kernel: 8 output features advance together; per feature
    /// the f32 operations and their order are exactly the reference
    /// `inner_product` walk, so the result is bitwise identical.
    fn run_lanes_f32(
        &self,
        lanes: &FcLanes,
        x: &[f32],
        activation: Option<Activation>,
        out: &mut Tensor,
    ) {
        for (b, wb) in lanes.w.iter().enumerate() {
            let real = (self.out_features - b * LANES).min(LANES);
            let mut acc = lanes.bias_v[b];
            for (wv, &xv) in wb.iter().zip(x) {
                for l in 0..LANES {
                    acc[l] += xv * wv[l];
                }
            }
            for (l, &a) in acc.iter().enumerate().take(real) {
                *out.at_mut(b * LANES + l, 0, 0) = apply_act(activation, a);
            }
        }
        note_vector_values(self.out_features as u64);
    }

    /// FP16 lane kernel: 8 output features advance together, each in the
    /// exact [`Reducer`] order with every product and partial rounded.
    fn run_lanes_f16(
        &self,
        lanes: &FcLanes,
        rx: &[f32],
        activation: Option<Activation>,
        out: &mut Tensor,
    ) {
        for (b, wb) in lanes.w.iter().enumerate() {
            let real = (self.out_features - b * LANES).min(LANES);
            let v = dot8_f16(rx, wb, lanes.bias_v[b], lanes.chunk);
            for (l, &a) in v.iter().enumerate().take(real) {
                *out.at_mut(b * LANES + l, 0, 0) = apply_act(activation, a);
            }
        }
        note_vector_values(self.out_features as u64);
    }

    /// The legacy exact FP16 walk (`rx` already on the binary16 grid).
    fn run_reducer_f16(&self, rx: &[f32], activation: Option<Activation>, out: &mut Tensor) {
        let in_features = rx.len();
        let mut reducer = Reducer::for_tactic(&self.tactic);
        let mut terms = Vec::with_capacity(in_features);
        for o in 0..self.out_features {
            terms.clear();
            let row = &self.weights[o * in_features..(o + 1) * in_features];
            for (xi, wi) in rx.iter().zip(row.iter()) {
                terms.push(round_f16(xi * wi));
            }
            let acc = reducer.reduce(&terms) + self.bias.get(o).copied().unwrap_or(0.0);
            *out.at_mut(o, 0, 0) = apply_act(activation, acc);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trtsim_ir::graph::LayerKind;
    use trtsim_ir::weights::Weights;
    use trtsim_util::rng::Pcg32;

    fn test_conv(seed: u64) -> ConvParams {
        let mut rng = Pcg32::seed_from_u64(seed);
        let len = 8 * 8 * 3 * 3;
        ConvParams {
            out_channels: 8,
            in_channels: 8,
            kernel_h: 3,
            kernel_w: 3,
            stride: 1,
            pad_h: 1,
            pad_w: 1,
            groups: 1,
            weights: Weights::Dense((0..len).map(|_| rng.normal() as f32 * 0.2).collect()),
            bias: Weights::Dense(vec![0.01; 8]),
            activation: Some(Activation::Relu),
        }
    }

    fn test_input(seed: u64) -> Tensor {
        let mut rng = Pcg32::seed_from_u64(seed);
        Tensor::from_fn([8, 8, 8], |_, _, _| rng.normal() as f32)
    }

    #[test]
    fn fp32_tactic_matches_reference() {
        let params = test_conv(1);
        let input = test_input(2);
        let t = Tactic::conv_fp32(128, 64);
        let got = conv_forward(&params, &input, &t, None);
        let w = params.weights.materialize();
        let b: Vec<f32> = params.bias.iter().collect();
        let want = trtsim_ir::ops::conv2d(&input, &w, &b, &params);
        assert_eq!(got, want);
    }

    #[test]
    fn fp16_is_close_but_not_equal_to_fp32() {
        let params = test_conv(3);
        let input = test_input(4);
        let fp32 = conv_forward(&params, &input, &Tactic::conv_fp32(128, 64), None);
        let fp16 = conv_forward(&params, &input, &Tactic::conv_hmma(128, 64, ""), None);
        let mut max_rel = 0.0f32;
        let mut any_diff = false;
        for (a, b) in fp32.as_slice().iter().zip(fp16.as_slice()) {
            if a != b {
                any_diff = true;
            }
            if a.abs() > 0.1 {
                max_rel = max_rel.max((a - b).abs() / a.abs());
            }
        }
        assert!(any_diff, "fp16 should differ in low-order bits");
        assert!(max_rel < 0.05, "fp16 error too large: {max_rel}");
    }

    #[test]
    fn different_tiles_produce_different_fp16_results() {
        // The heart of Finding 2: same layer, same input, different tactic ⇒
        // different accumulation order ⇒ different bits.
        let params = test_conv(5);
        let input = test_input(6);
        let a = conv_forward(&params, &input, &Tactic::conv_hmma(256, 64, ""), None);
        let b = conv_forward(&params, &input, &Tactic::conv_hmma(128, 128, ""), None);
        assert_ne!(a, b);
        // But they agree to FP16 tolerance.
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            assert!((x - y).abs() <= 0.01 * x.abs().max(1.0));
        }
    }

    #[test]
    fn int8_is_deterministic_across_tile_choices() {
        let params = test_conv(7);
        let input = test_input(8);
        let q = QuantDesc {
            input: QuantParams::calibrate(input.as_slice()),
            weights: QuantParams::calibrate(&params.weights.materialize()),
        };
        let a = conv_forward(&params, &input, &Tactic::conv_int8(128, 64), Some(&q));
        let b = conv_forward(&params, &input, &Tactic::conv_int8(256, 64), Some(&q));
        assert_eq!(a, b, "integer accumulation is associative");
    }

    #[test]
    fn int8_tracks_fp32_within_quant_error() {
        let params = test_conv(9);
        let input = test_input(10);
        let q = QuantDesc {
            input: QuantParams::calibrate(input.as_slice()),
            weights: QuantParams::calibrate(&params.weights.materialize()),
        };
        let fp32 = conv_forward(&params, &input, &Tactic::conv_fp32(128, 64), None);
        let int8 = conv_forward(&params, &input, &Tactic::conv_int8(128, 64), Some(&q));
        let amax = fp32.amax();
        for (a, b) in fp32.as_slice().iter().zip(int8.as_slice()) {
            assert!((a - b).abs() < 0.08 * amax, "{a} vs {b}");
        }
    }

    #[test]
    fn reducer_orders_differ_on_adversarial_input() {
        let t_seq = Tactic::conv_fp32(1, 1); // sequential fp32
        let mut seq = Reducer::for_tactic(&t_seq);
        let mut chunked = Reducer {
            order: AccumOrder::Chunked(2),
            fp16: true,
            scratch: Vec::new(),
        };
        let mut pair = Reducer {
            order: AccumOrder::Pairwise,
            fp16: true,
            scratch: Vec::new(),
        };
        let terms: Vec<f32> = (0..64)
            .map(|i| {
                if i % 2 == 0 {
                    1.0 + i as f32 * 1e-3
                } else {
                    -1.0
                }
            })
            .collect();
        let a = seq.reduce(&terms);
        let b = chunked.reduce(&terms);
        let c = pair.reduce(&terms);
        // All approximate the same sum...
        let exact: f32 = terms.iter().sum();
        for v in [a, b, c] {
            assert!((v - exact).abs() < 0.1);
        }
        // ...but fp16 orders disagree with exact sequential fp32.
        assert!(b != a || c != a);
    }

    #[test]
    fn reducer_handles_empty_and_single() {
        let mut r = Reducer::for_tactic(&Tactic::conv_hmma(128, 64, ""));
        assert_eq!(r.reduce(&[]), 0.0);
        assert_eq!(r.reduce(&[2.5]), 2.5);
    }

    #[test]
    fn apply_precision_fp16_rounds() {
        let mut t = Tensor::from_vec([1, 1, 2], vec![1.0 / 3.0, 1.0]);
        apply_precision(&mut t, Precision::Fp16);
        assert_ne!(t.at(0, 0, 0), 1.0 / 3.0);
        assert_eq!(t.at(0, 0, 1), 1.0);
    }

    /// Zeroes small weights, mimicking the accuracy experiments' magnitude
    /// pruning (the sparsity the prepared kernels exploit).
    fn prune(params: &mut ConvParams, thresh: f32) {
        let w: Vec<f32> = params
            .weights
            .materialize()
            .iter()
            .map(|&v| if v.abs() < thresh { 0.0 } else { v })
            .collect();
        params.weights = Weights::Dense(w);
    }

    /// Asymmetric geometry: 5×3 kernel, stride 2, pad 2×0, two groups.
    fn strided_conv(seed: u64) -> ConvParams {
        let mut rng = Pcg32::seed_from_u64(seed);
        let len = 6 * 2 * 5 * 3;
        ConvParams {
            out_channels: 6,
            in_channels: 4,
            kernel_h: 5,
            kernel_w: 3,
            stride: 2,
            pad_h: 2,
            pad_w: 0,
            groups: 2,
            weights: Weights::Dense((0..len).map(|_| rng.normal() as f32 * 0.2).collect()),
            bias: Weights::Dense(vec![-0.02, 0.0, 0.01, 0.3, -0.1, 0.07]),
            activation: None,
        }
    }

    fn strided_input(seed: u64) -> Tensor {
        let mut rng = Pcg32::seed_from_u64(seed);
        // Odd height so the last output row's window is clipped.
        Tensor::from_fn([4, 9, 8], |_, _, _| rng.normal() as f32)
    }

    fn assert_prepared_matches(
        params: &ConvParams,
        input: &Tensor,
        tactic: &Tactic,
        quant: Option<&QuantDesc>,
    ) {
        let want = conv_forward(params, input, tactic, quant);
        let prepared = PreparedConv::new(params, input.shape(), tactic, quant);
        let mut arena = TensorArena::new();
        let first = prepared.run(params, input, &mut arena);
        assert_eq!(first, want, "prepared mismatch under {:?}", tactic.accum);
        arena.release(first);
        // A second pass runs on recycled buffers and must still agree.
        assert_eq!(prepared.run(params, input, &mut arena), want);
    }

    #[test]
    fn prepared_fp32_bit_identical_on_pruned_weights() {
        let mut square = test_conv(21);
        prune(&mut square, 0.15);
        assert_prepared_matches(&square, &test_input(22), &Tactic::conv_fp32(128, 64), None);
        let mut strided = strided_conv(23);
        prune(&mut strided, 0.15);
        assert_prepared_matches(
            &strided,
            &strided_input(24),
            &Tactic::conv_fp32(128, 64),
            None,
        );
    }

    #[test]
    fn prepared_fp16_bit_identical_across_accum_orders() {
        let mut chunk_small = Tactic::conv_hmma(128, 64, "");
        chunk_small.accum = AccumOrder::Chunked(4); // stress static flush points
        let mut seq = Tactic::conv_hmma(128, 64, "");
        seq.accum = AccumOrder::Sequential;
        let mut pair = Tactic::conv_hmma(128, 64, "");
        pair.accum = AccumOrder::Pairwise;
        for tactic in [Tactic::conv_hmma(128, 64, ""), chunk_small, seq, pair] {
            let mut square = test_conv(31);
            prune(&mut square, 0.15);
            assert_prepared_matches(&square, &test_input(32), &tactic, None);
            let mut strided = strided_conv(33);
            prune(&mut strided, 0.15);
            assert_prepared_matches(&strided, &strided_input(34), &tactic, None);
            // Interior rows wider than 8 pixels: the grouped row walk's
            // vector chunks plus a scalar tail, at stride 2 and 1.
            let mut rng = Pcg32::seed_from_u64(35);
            let wide_input = Tensor::from_fn([4, 9, 40], |_, _, _| rng.normal() as f32);
            assert_prepared_matches(&strided, &wide_input, &tactic, None);
            strided.stride = 1;
            assert_prepared_matches(&strided, &wide_input, &tactic, None);
        }
    }

    #[test]
    fn prepared_int8_bit_identical_on_pruned_weights() {
        let mut params = test_conv(41);
        prune(&mut params, 0.15);
        let input = test_input(42);
        let q = QuantDesc {
            input: QuantParams::calibrate(input.as_slice()),
            weights: QuantParams::calibrate(&params.weights.materialize()),
        };
        assert_prepared_matches(&params, &input, &Tactic::conv_int8(128, 64), Some(&q));
    }

    #[test]
    fn prepared_falls_back_on_non_finite_input() {
        let mut params = test_conv(51);
        prune(&mut params, 0.15);
        let mut input = test_input(52);
        *input.at_mut(0, 0, 0) = f32::INFINITY;
        *input.at_mut(3, 4, 5) = f32::NAN;
        for tactic in [Tactic::conv_fp32(128, 64), Tactic::conv_hmma(128, 64, "")] {
            let want = conv_forward(&params, &input, &tactic, None);
            let prepared = PreparedConv::new(&params, input.shape(), &tactic, None);
            let got = prepared.run(&params, &input, &mut TensorArena::new());
            assert_eq!(got.shape(), want.shape());
            // NaN != NaN, so compare bit patterns.
            for (a, b) in got.as_slice().iter().zip(want.as_slice()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn prepared_elides_pruned_terms() {
        // Grouped (non-depthwise) convs stay on the legacy sparse path,
        // which elides zero weights; lane-kernel convs run dense.
        let mut params = strided_conv(61);
        prune(&mut params, 0.2);
        let p = PreparedConv::new(&params, [4, 9, 8], &Tactic::conv_hmma(128, 64, ""), None);
        assert!(
            p.live_terms() < p.dense_terms(),
            "{} !< {}",
            p.live_terms(),
            p.dense_terms()
        );
        let square = PreparedConv::new(
            &test_conv(61),
            [8, 8, 8],
            &Tactic::conv_hmma(128, 64, ""),
            None,
        );
        assert_eq!(square.live_terms(), square.dense_terms(), "lanes run dense");
    }

    /// Runs `params` under every (layout_in, layout_out) pair, converting
    /// the input/output at the edges, and asserts bitwise identity with the
    /// canonical CHW result.
    fn assert_layouts_match(params: &ConvParams, input: &Tensor, tactic: &Tactic) {
        let want = conv_forward(params, input, tactic, None);
        let all = [Layout::Chw, Layout::Nhwc, Layout::Chwc8];
        for li in all {
            for lo in all {
                let prepared =
                    PreparedConv::with_layouts(params, input.shape(), tactic, None, li, lo);
                assert_eq!(prepared.layouts(), (li, lo));
                let phys_in = Tensor::from_vec(
                    prepared.in_physical_shape(),
                    layout::convert(input.as_slice(), input.shape(), Layout::Chw, li),
                );
                let mut arena = TensorArena::new();
                let phys_out = prepared.run(params, &phys_in, &mut arena);
                assert_eq!(phys_out.shape(), prepared.out_physical_shape());
                let back = layout::convert(phys_out.as_slice(), want.shape(), lo, Layout::Chw);
                for (i, (a, b)) in back.iter().zip(want.as_slice()).enumerate() {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "{li:?}->{lo:?} elem {i}: {a:e} vs {b:e} under {:?}",
                        tactic.accum
                    );
                }
            }
        }
    }

    #[test]
    fn lane_layouts_bit_identical_fp32() {
        assert_layouts_match(&test_conv(81), &test_input(82), &Tactic::conv_fp32(128, 64));
    }

    #[test]
    fn lane_layouts_bit_identical_fp16_orders() {
        let mut seq = Tactic::conv_hmma(128, 64, "");
        seq.accum = AccumOrder::Sequential;
        let mut chunk_small = Tactic::conv_hmma(128, 64, "");
        chunk_small.accum = AccumOrder::Chunked(4);
        for tactic in [Tactic::conv_hmma(128, 64, ""), chunk_small, seq] {
            assert_layouts_match(&test_conv(83), &test_input(84), &tactic);
        }
    }

    /// Channel count not a multiple of 8 exercises blocked pad lanes and a
    /// partial final lane block.
    #[test]
    fn lane_layouts_bit_identical_ragged_channels() {
        let mut rng = Pcg32::seed_from_u64(85);
        let len = 10 * 6 * 3 * 3;
        let params = ConvParams {
            out_channels: 10,
            in_channels: 6,
            kernel_h: 3,
            kernel_w: 3,
            stride: 1,
            pad_h: 1,
            pad_w: 1,
            groups: 1,
            weights: Weights::Dense((0..len).map(|_| rng.normal() as f32 * 0.2).collect()),
            bias: Weights::Dense((0..10).map(|_| rng.normal() as f32 * 0.1).collect()),
            activation: Some(Activation::Relu),
        };
        let input = Tensor::from_fn([6, 7, 9], |_, _, _| rng.normal() as f32);
        assert_layouts_match(&params, &input, &Tactic::conv_fp32(128, 64));
        assert_layouts_match(&params, &input, &Tactic::conv_hmma(128, 64, ""));
        // A strided 5x5 window wider than the input: every pixel is a
        // border pixel, clipped on both sides.
        let wide = ConvParams {
            kernel_h: 5,
            kernel_w: 5,
            stride: 2,
            pad_h: 2,
            pad_w: 2,
            weights: Weights::Dense(
                (0..10 * 6 * 25)
                    .map(|_| rng.normal() as f32 * 0.2)
                    .collect(),
            ),
            ..params
        };
        let small = Tensor::from_fn([6, 3, 4], |_, _, _| rng.normal() as f32);
        assert_layouts_match(&wide, &small, &Tactic::conv_fp32(128, 64));
        assert_layouts_match(&wide, &small, &Tactic::conv_hmma(128, 64, ""));
    }

    #[test]
    fn lane_layouts_bit_identical_depthwise() {
        for channels in [4usize, 12] {
            let mut rng = Pcg32::seed_from_u64(86 + channels as u64);
            let params = ConvParams {
                out_channels: channels,
                in_channels: channels,
                kernel_h: 3,
                kernel_w: 3,
                stride: 1,
                pad_h: 1,
                pad_w: 1,
                groups: channels,
                weights: Weights::Dense(
                    (0..channels * 9)
                        .map(|_| rng.normal() as f32 * 0.3)
                        .collect(),
                ),
                bias: Weights::Dense((0..channels).map(|_| rng.normal() as f32 * 0.1).collect()),
                activation: Some(Activation::Relu),
            };
            let input = Tensor::from_fn([channels, 6, 6], |_, _, _| rng.normal() as f32);
            assert_layouts_match(&params, &input, &Tactic::conv_fp32(128, 64));
            let mut dw = Tactic::conv_hmma(64, 64, "");
            dw.family = crate::tactic::TacticFamily::Depthwise;
            assert_layouts_match(&params, &input, &dw);
        }
    }

    #[test]
    fn lane_non_finite_falls_back_dense_under_layouts() {
        let params = test_conv(87);
        let mut input = test_input(88);
        *input.at_mut(0, 0, 0) = f32::INFINITY;
        *input.at_mut(5, 3, 2) = f32::NAN;
        for tactic in [Tactic::conv_fp32(128, 64), Tactic::conv_hmma(128, 64, "")] {
            assert_layouts_match(&params, &input, &tactic);
        }
    }

    #[test]
    fn lane_layout_descriptor_matches_eligibility() {
        let square = test_conv(89);
        assert_eq!(
            lane_layout(&square, &Tactic::conv_hmma(128, 64, "")),
            Some(Layout::Chwc8)
        );
        assert_eq!(
            lane_layout(&square, &Tactic::conv_fp32(128, 64)),
            Some(Layout::Chwc8)
        );
        let mut pair = Tactic::conv_hmma(128, 64, "");
        pair.accum = AccumOrder::Pairwise;
        assert_eq!(lane_layout(&square, &pair), None);
        assert_eq!(lane_layout(&square, &Tactic::conv_int8(128, 64)), None);
        // Grouped non-depthwise: no lane kernel.
        assert_eq!(
            lane_layout(&strided_conv(90), &Tactic::conv_hmma(128, 64, "")),
            None
        );
        // Depthwise prefers NHWC under a depthwise tactic.
        let mut dw_params = strided_conv(91);
        dw_params.groups = 4;
        dw_params.in_channels = 4;
        dw_params.out_channels = 4;
        let mut dw = Tactic::conv_hmma(64, 64, "");
        dw.family = crate::tactic::TacticFamily::Depthwise;
        assert_eq!(lane_layout(&dw_params, &dw), Some(Layout::Nhwc));
    }

    #[test]
    fn prepared_fc_bit_identical() {
        let mut rng = Pcg32::seed_from_u64(71);
        let (out_features, in_features) = (10, 48);
        let w: Vec<f32> = (0..out_features * in_features)
            .map(|_| rng.normal() as f32 * 0.3)
            .collect();
        let b: Vec<f32> = (0..out_features)
            .map(|_| rng.normal() as f32 * 0.1)
            .collect();
        let input = Tensor::from_vec(
            [in_features, 1, 1],
            (0..in_features).map(|_| rng.normal() as f32).collect(),
        );
        for tactic in [Tactic::conv_fp32(128, 64), Tactic::conv_hmma(128, 64, "")] {
            let want = fc_forward(
                &input,
                &w,
                &b,
                out_features,
                Some(Activation::Relu),
                &tactic,
            );
            let prepared = PreparedFc::new(
                &Weights::Dense(w.clone()),
                &Weights::Dense(b.clone()),
                out_features,
                &tactic,
            );
            let mut arena = TensorArena::new();
            assert_eq!(
                prepared.run(&input, Some(Activation::Relu), &mut arena),
                want
            );
            assert_eq!(
                prepared.run(&input, Some(Activation::Relu), &mut arena),
                want
            );
        }
    }

    /// Rescales values to magnitudes in `[1e4, 6e4]`, keeping their sign.
    fn huge(rng: &mut Pcg32, n: usize) -> Vec<f32> {
        (0..n)
            .map(|_| {
                let m = 1e4 + 5e4 * rng.next_f64() as f32;
                if rng.next_f64() < 0.5 {
                    -m
                } else {
                    m
                }
            })
            .collect()
    }

    fn assert_bits_eq(got: &[f32], want: &[f32], what: &str) {
        assert_eq!(got.len(), want.len());
        for (i, (a, b)) in got.iter().zip(want).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "{what} elem {i}: {a:e} vs {b:e}");
        }
    }

    /// Products and partial sums past binary16's 65504 (±∞ products,
    /// ∞ − ∞ partials): the lane kernels, the legacy row walk and the FC
    /// lanes must still match the scalar reference bit for bit.
    #[test]
    fn fp16_overflowing_products_and_partials_stay_bit_identical() {
        let mut rng = Pcg32::seed_from_u64(97);
        let mut seq = Tactic::conv_hmma(128, 64, "");
        seq.accum = AccumOrder::Sequential;
        let mut chunk_small = Tactic::conv_hmma(128, 64, "");
        chunk_small.accum = AccumOrder::Chunked(4);
        let tactics = [Tactic::conv_hmma(128, 64, ""), chunk_small, seq];
        // Reference outputs seen as [finite, ±∞, NaN].
        let mut seen = [0usize; 3];
        let mut tally = |t: &Tensor| {
            for v in t.as_slice() {
                seen[usize::from(v.is_infinite()) + 2 * usize::from(v.is_nan())] += 1;
            }
        };
        let scaled = |rng: &mut Pcg32, n: usize, scale: f32| -> Weights {
            Weights::Dense(huge(rng, n).iter().map(|v| v * scale).collect())
        };

        // Weights of 0.2–1.2 overflow single products; 0.05–0.3 overflow
        // only partial sums, leaving a mix of finite and infinite outputs.
        for scale in [2e-5f32, 5e-6] {
            // Ungrouped (lane kernel, every layout pair), ragged channels.
            let params = ConvParams {
                out_channels: 10,
                in_channels: 6,
                weights: scaled(&mut rng, 10 * 6 * 9, scale),
                bias: Weights::Dense(vec![0.5; 10]),
                activation: None,
                ..test_conv(98)
            };
            let input = Tensor::from_vec([6, 7, 9], huge(&mut rng, 6 * 7 * 9));
            // Depthwise (every pixel through the bounds-checked lanes).
            let dw_params = ConvParams {
                out_channels: 12,
                in_channels: 12,
                groups: 12,
                weights: scaled(&mut rng, 12 * 9, scale),
                bias: Weights::Dense(vec![0.0; 12]),
                activation: None,
                ..test_conv(99)
            };
            let dw_input = Tensor::from_vec([12, 6, 6], huge(&mut rng, 12 * 36));
            // Fully connected.
            let (out_features, in_features) = (10, 48);
            let fc_w = scaled(&mut rng, out_features * in_features, scale);
            let fc_b = Weights::Dense(vec![0.25; out_features]);
            let x = Tensor::from_vec([in_features, 1, 1], huge(&mut rng, in_features));
            for tactic in &tactics {
                tally(&conv_forward(&params, &input, tactic, None));
                assert_layouts_match(&params, &input, tactic);
                let mut dw = tactic.clone();
                dw.family = crate::tactic::TacticFamily::Depthwise;
                tally(&conv_forward(&dw_params, &dw_input, &dw, None));
                assert_layouts_match(&dw_params, &dw_input, &dw);

                let (w, b) = (fc_w.materialize(), fc_b.materialize());
                let want = fc_forward(&x, &w, &b, out_features, None, tactic);
                tally(&want);
                let prepared = PreparedFc::new(&fc_w, &fc_b, out_features, tactic);
                let got = prepared.run(&x, None, &mut TensorArena::new());
                assert_bits_eq(got.as_slice(), want.as_slice(), "fc");
            }
        }

        // Grouped (legacy sparse row walk), strided, rows of 19 pixels.
        let mut grouped = strided_conv(100);
        grouped.weights = scaled(&mut rng, 6 * 2 * 5 * 3, 1e-5);
        let g_input = Tensor::from_vec([4, 9, 40], huge(&mut rng, 4 * 9 * 40));
        for tactic in &tactics {
            let want = conv_forward(&grouped, &g_input, tactic, None);
            tally(&want);
            let prepared = PreparedConv::new(&grouped, g_input.shape(), tactic, None);
            let got = prepared.run(&grouped, &g_input, &mut TensorArena::new());
            assert_bits_eq(got.as_slice(), want.as_slice(), "grouped");
        }
        assert!(seen.iter().all(|&n| n > 0), "[finite, inf, nan] = {seen:?}");
    }

    #[test]
    fn depthwise_numeric_fp16_runs() {
        let mut params = match LayerKind::conv_seeded(4, 4, 3, 1, 1, 0) {
            LayerKind::Conv(c) => c,
            _ => unreachable!(),
        };
        params.groups = 4;
        params.weights = Weights::Dense(vec![0.5; 4 * 9]);
        let input = test_input(11);
        let input = Tensor::from_vec([4, 8, 8], input.as_slice()[..4 * 64].to_vec());
        let mut t = Tactic::conv_hmma(64, 64, "");
        t.family = crate::tactic::TacticFamily::Depthwise;
        let out = conv_forward(&params, &input, &t, None);
        assert_eq!(out.shape(), [4, 8, 8]);
    }
}
