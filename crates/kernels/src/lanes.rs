//! SIMD lane-array convolution micro-kernels with per-tactic data layouts.
//!
//! The hot inner loops of [`crate::numeric::PreparedConv`] are written here
//! as branch-free `[f32; 8]` *lane arrays*: eight output channels advance in
//! lockstep through the kernel taps, so LLVM lowers each step to a handful
//! of 256-bit vector instructions (the build sets `-C target-cpu=native`).
//! This is the simulator's analog of TensorRT's tactic-specific
//! `h884cudnn…nhwc` kernels — and like them, each kernel prefers a physical
//! activation layout ([`trtsim_ir::layout::Layout`]):
//!
//! * ungrouped convolutions vectorize over **output channels** and prefer
//!   blocked `CHWc8` so their stores are contiguous 8-lane vectors;
//! * depthwise convolutions vectorize over **channels** and prefer `NHWC`
//!   so their loads are contiguous 8-lane vectors;
//! * every kernel also accepts canonical CHW operands (scalar broadcasts /
//!   gathers), so the plan-time layout assignment is free to leave a value
//!   canonical when converts would cost more than they save.
//!
//! # Bit-exactness
//!
//! Results are bit-identical to the scalar reference walks in
//! [`crate::numeric`]:
//!
//! * FP32 lanes accumulate in *exactly* the reference tap order with the
//!   bias as the initial accumulator — the same f32 operations in the same
//!   order, so even non-finite inputs propagate identically.
//! * FP16 lanes round every product and partial sum with `round8`, which
//!   equals [`round_f16`] on every non-NaN `f32` — ±0, subnormals, the
//!   65504/65520 overflow edge and ±∞ included — so no value range needs a
//!   guard or a scalar redo. On x86-64 with F16C it is the hardware
//!   `vcvtps2ph`/`vcvtph2ps` round trip; elsewhere it maps [`round_f16`]
//!   over the lanes.
//!
//! Values produced by the vector path and by scalar walks (dense fallbacks
//! for non-finite operands, legacy prepared kernels) are tallied
//! process-wide and exported by the core telemetry bridge as
//! `trtsim_kernel_vector_lanes_total` / `trtsim_kernel_scalar_fallback_total`.

use std::sync::atomic::{AtomicU64, Ordering};

use trtsim_gpu::kernel::Precision;
use trtsim_ir::graph::{Activation, ConvParams};
use trtsim_ir::layout::{Layout, LANES};
use trtsim_util::f16::round_f16;

use crate::numeric::{apply_act, fold_chunk, ConvGeom, Interior};
use crate::tactic::{AccumOrder, Tactic};

/// Output-pixel positions advanced together by the interior micro-kernel.
const TILE: usize = 4;

/// Output values produced by the vectorized lane-array path.
static VECTOR_LANES: AtomicU64 = AtomicU64::new(0);
/// Output values produced by scalar walks: dense fallbacks and the legacy
/// (non-lane) prepared kernels.
static SCALAR_FALLBACK: AtomicU64 = AtomicU64::new(0);

/// Monotone count of output values computed by the vector lane path.
pub fn vector_lane_events() -> u64 {
    VECTOR_LANES.load(Ordering::Relaxed)
}

/// Monotone count of output values computed by scalar fallback paths.
pub fn scalar_fallback_events() -> u64 {
    SCALAR_FALLBACK.load(Ordering::Relaxed)
}

pub(crate) fn note_vector_values(n: u64) {
    if n > 0 {
        VECTOR_LANES.fetch_add(n, Ordering::Relaxed);
    }
}

pub(crate) fn note_scalar_values(n: u64) {
    if n > 0 {
        SCALAR_FALLBACK.fetch_add(n, Ordering::Relaxed);
    }
}

/// Rounds 8 lanes onto the binary16 grid (round-to-nearest-even) and back:
/// the F16C `vcvtps2ph`/`vcvtph2ps` round trip. Bit-identical to
/// [`round_f16`] on every non-NaN `f32`; a NaN stays NaN with its sign,
/// and the NaNs arithmetic produces (quiet bit only) keep their bits.
#[cfg(all(target_arch = "x86_64", target_feature = "f16c"))]
#[inline(always)]
pub(crate) fn round8(v: [f32; LANES]) -> [f32; LANES] {
    use std::arch::x86_64::{
        _mm256_cvtph_ps, _mm256_cvtps_ph, _mm256_loadu_ps, _mm256_storeu_ps,
        _MM_FROUND_TO_NEAREST_INT,
    };
    let mut r = [0.0f32; LANES];
    // SAFETY: F16C (and the AVX it implies) is enabled for the whole build
    // by the cfg above, and both pointers address 8 valid f32 lanes.
    unsafe {
        let h = _mm256_cvtps_ph::<_MM_FROUND_TO_NEAREST_INT>(_mm256_loadu_ps(v.as_ptr()));
        _mm256_storeu_ps(r.as_mut_ptr(), _mm256_cvtph_ps(h));
    }
    r
}

/// Rounds 8 lanes onto the binary16 grid and back with the scalar
/// [`round_f16`] (targets without F16C).
#[cfg(not(all(target_arch = "x86_64", target_feature = "f16c")))]
#[inline(always)]
pub(crate) fn round8(v: [f32; LANES]) -> [f32; LANES] {
    v.map(round_f16)
}

/// One multiply-accumulate step of 8 lanes: `acc + x·w`, with FP16
/// rounding of the product and of the sum.
#[inline(always)]
pub(crate) fn mac8<const FP16: bool>(
    acc: [f32; LANES],
    xv: [f32; LANES],
    wv: [f32; LANES],
) -> [f32; LANES] {
    let mut p = [0.0f32; LANES];
    for l in 0..LANES {
        p[l] = xv[l] * wv[l];
    }
    if FP16 {
        p = round8(p);
    }
    let mut s = [0.0f32; LANES];
    for l in 0..LANES {
        s[l] = acc[l] + p[l];
    }
    if FP16 {
        round8(s)
    } else {
        s
    }
}

/// Split-K flush: folds the FP16 chunk accumulator into the wide carry.
#[inline(always)]
fn flush8(carry: &mut [f64; LANES], acc: &mut [f32; LANES]) {
    for l in 0..LANES {
        carry[l] += f64::from(acc[l]);
        acc[l] = 0.0;
    }
}

/// The biased result of a folded FP16 accumulation: `(carry + acc) + bias`.
#[inline(always)]
fn finish8(carry: [f64; LANES], acc: [f32; LANES], bv: [f32; LANES]) -> [f32; LANES] {
    let mut r = [0.0f32; LANES];
    for l in 0..LANES {
        r[l] = (carry[l] + f64::from(acc[l])) as f32 + bv[l];
    }
    r
}

/// One FP16 sequential/chunked dot product per lane: `x[tap]` broadcast
/// against the weight lanes of `wb`, flushed every `chunk` taps. Returns
/// the biased result. The fully-connected lane kernel.
pub(crate) fn dot8_f16(
    x: &[f32],
    wb: &[[f32; LANES]],
    bv: [f32; LANES],
    chunk: usize,
) -> [f32; LANES] {
    let mut acc = [0.0f32; LANES];
    let mut carry = [0.0f64; LANES];
    let mut ic = 0usize;
    for (wv, &xv) in wb.iter().zip(x) {
        acc = mac8::<true>(acc, [xv; LANES], *wv);
        ic += 1;
        if ic == chunk {
            flush8(&mut carry, &mut acc);
            ic = 0;
        }
    }
    finish8(carry, acc, bv)
}

/// Rounds a slice onto the binary16 grid in place, 8 lanes at a time;
/// bit-identical to mapping [`round_f16`]. Returns whether every rounded
/// value is finite.
pub(crate) fn round_f16_slice(buf: &mut [f32]) -> bool {
    let mut finite = true;
    let mut chunks = buf.chunks_exact_mut(LANES);
    for c in &mut chunks {
        let v: [f32; LANES] = c.try_into().unwrap();
        let r = round8(v);
        c.copy_from_slice(&r);
        if !r.iter().all(|x| x.is_finite()) {
            finite = false;
            // The hardware conversion keeps NaN payload bits that the
            // scalar conversion drops; give NaN lanes the scalar bits.
            for (x, &src) in c.iter_mut().zip(&v) {
                if src.is_nan() {
                    *x = round_f16(src);
                }
            }
        }
    }
    for x in chunks.into_remainder() {
        *x = round_f16(*x);
        finite &= x.is_finite();
    }
    finite
}

/// A convolution lowered onto the lane-array micro-kernels.
///
/// Weights are packed `[oc_block][tap] -> [f32; 8]` (output-channel lanes;
/// channel lanes for depthwise), in the exact tap order of the dense
/// reference walk. Input addressing is layout-parameterized: interior taps
/// use precomputed physical deltas from the window origin, border pixels
/// clip their window to the input and address rows through
/// [`Layout::index`].
#[derive(Debug, Clone)]
pub(crate) struct LaneConv {
    pub(crate) layout_in: Layout,
    pub(crate) layout_out: Layout,
    pub(crate) fp16: bool,
    depthwise: bool,
    /// FP16 weights contain non-finite values: every run takes the exact
    /// dense fallback, which keeps the reference's NaN propagation order.
    pub(crate) force_dense: bool,
    /// Split-K flush period in taps (`usize::MAX`: never flush).
    chunk: usize,
    /// Physical elements per one-pixel step along x in `layout_in`.
    in_mul: usize,
    /// Interior input offset of each tap from the window origin (std only).
    deltas: Vec<isize>,
    /// `[block][tap]` weight lanes; lanes past the real channel count are 0.
    w: Vec<Vec<[f32; LANES]>>,
    /// Per-block bias lanes; pad lanes are 0.
    bias_v: Vec<[f32; LANES]>,
    /// Dense CHW-ordered weights (FP16: pre-rounded) for the fallback path.
    pub(crate) rdense: Vec<f32>,
}

impl LaneConv {
    /// Lowers the conv onto lane kernels, or `None` when the shape/tactic
    /// combination stays on the legacy prepared paths (grouped non-depthwise
    /// convolutions, pairwise FP16, INT8).
    pub(crate) fn build(
        params: &ConvParams,
        g: &ConvGeom,
        tactic: &Tactic,
        dense: &[f32],
        bias: &[f32],
        layout_in: Layout,
        layout_out: Layout,
    ) -> Option<Self> {
        let fp16 = match tactic.precision {
            Precision::Fp32 => false,
            Precision::Fp16 if tactic.accum != AccumOrder::Pairwise => true,
            _ => return None,
        };
        let depthwise = params.groups > 1
            && params.groups == params.in_channels
            && params.groups == params.out_channels;
        if params.groups != 1 && !depthwise {
            return None;
        }
        let rdense: Vec<f32> = if fp16 {
            dense.iter().map(|&v| round_f16(v)).collect()
        } else {
            dense.to_vec()
        };
        let force_dense = fp16 && rdense.iter().any(|v| !v.is_finite());

        let [ic, ih, iw] = g.in_shape;
        let (iwi, ihiw) = (iw as isize, (ih * iw) as isize);
        let mut deltas = Vec::new();
        let taps_per_oc = if depthwise {
            g.kh * g.kw
        } else {
            ic * g.kh * g.kw
        };
        for c_in in 0..if depthwise { 0 } else { ic } {
            for ky in 0..g.kh {
                for kx in 0..g.kw {
                    let dy = ky as isize - g.ph;
                    let dx = kx as isize - g.pw;
                    deltas.push(match layout_in {
                        Layout::Chw => c_in as isize * ihiw + dy * iwi + dx,
                        Layout::Chwc8 => {
                            ((c_in / LANES) as isize * ihiw + dy * iwi + dx) * LANES as isize
                                + (c_in % LANES) as isize
                        }
                        Layout::Nhwc => (dy * iwi + dx) * ic as isize + c_in as isize,
                    });
                }
            }
        }
        let in_mul = match layout_in {
            Layout::Chw => 1,
            Layout::Chwc8 => LANES,
            Layout::Nhwc => ic,
        };

        let blocks = g.out_channels.div_ceil(LANES);
        let mut w = Vec::with_capacity(blocks);
        let mut bias_v = Vec::with_capacity(blocks);
        for b in 0..blocks {
            let mut wb = vec![[0.0f32; LANES]; taps_per_oc];
            let mut bv = [0.0f32; LANES];
            for l in 0..LANES {
                let oc = b * LANES + l;
                if oc >= g.out_channels {
                    break;
                }
                bv[l] = bias.get(oc).copied().unwrap_or(0.0);
                for (tap, lane) in wb.iter_mut().enumerate() {
                    lane[l] = rdense[oc * taps_per_oc + tap];
                }
            }
            w.push(wb);
            bias_v.push(bv);
        }

        Some(Self {
            layout_in,
            layout_out,
            fp16,
            depthwise,
            force_dense,
            chunk: if fp16 {
                fold_chunk(tactic.accum)
            } else {
                usize::MAX
            },
            in_mul,
            deltas,
            w,
            bias_v,
            rdense,
        })
    }

    /// Executes the lane kernels. `x` is the physical input in `layout_in`
    /// (already rounded to binary16 and verified finite for FP16); `out` is
    /// the physical output buffer in `layout_out`, pre-zeroed by the arena.
    pub(crate) fn run(
        &self,
        g: &ConvGeom,
        it: &Interior,
        activation: Option<Activation>,
        x: &[f32],
        out: &mut [f32],
    ) {
        // Depthwise convs take every pixel through the clipped-window path.
        let it = (!self.depthwise).then_some(it);
        if self.fp16 {
            self.run_fp::<true>(g, it, activation, x, out);
        } else {
            self.run_fp::<false>(g, it, activation, x, out);
        }
        note_vector_values((g.out_channels * g.oh * g.ow) as u64);
    }

    /// The interior tiles of every block (standard convs only), then one
    /// clipped-window pass over every pixel outside `it`, two output blocks
    /// per pixel.
    fn run_fp<const FP16: bool>(
        &self,
        g: &ConvGeom,
        it: Option<&Interior>,
        act: Option<Activation>,
        x: &[f32],
        out: &mut [f32],
    ) {
        let blocks = g.out_channels.div_ceil(LANES);
        if let Some(it) = it {
            let xs = self.in_mul * g.s;
            for b in 0..blocks {
                let wb = &self.w[b];
                let bv = self.bias_v[b];
                for oy in it.oy_lo..it.oy_hi {
                    let row0 = (oy * g.s) * g.iw;
                    let mut ox = it.ox_lo;
                    while ox + TILE <= it.ox_hi {
                        let base = (row0 + ox * g.s) * self.in_mul;
                        let vals =
                            std_tile::<TILE, FP16>(x, wb, &self.deltas, base, xs, bv, self.chunk);
                        for (t, v) in vals.iter().enumerate() {
                            self.store8(g, act, b, oy, ox + t, v, out);
                        }
                        ox += TILE;
                    }
                    while ox < it.ox_hi {
                        let base = (row0 + ox * g.s) * self.in_mul;
                        let [v] =
                            std_tile::<1, FP16>(x, wb, &self.deltas, base, xs, bv, self.chunk);
                        self.store8(g, act, b, oy, ox, &v, out);
                        ox += 1;
                    }
                }
            }
        }
        let mut b = 0;
        while b + 2 <= blocks {
            self.border_blocks::<2, FP16>(g, it, act, x, b, out);
            b += 2;
        }
        if b < blocks {
            self.border_blocks::<1, FP16>(g, it, act, x, b, out);
        }
    }

    /// Every output pixel outside the interior (all of them when `it` is
    /// `None`) for the `NB` output blocks starting at `b0`.
    fn border_blocks<const NB: usize, const FP16: bool>(
        &self,
        g: &ConvGeom,
        it: Option<&Interior>,
        act: Option<Activation>,
        x: &[f32],
        b0: usize,
        out: &mut [f32],
    ) {
        for oy in 0..g.oh {
            let (left, right) = match it {
                Some(it) if oy >= it.oy_lo && oy < it.oy_hi && it.ox_lo < it.ox_hi => {
                    (0..it.ox_lo, it.ox_hi..g.ow)
                }
                _ => (0..g.ow, 0..0),
            };
            for ox in left.chain(right) {
                let vals = self.border_pixel::<NB, FP16>(x, g, b0, oy, ox);
                for (k, v) in vals.iter().enumerate() {
                    self.store8(g, act, b0 + k, oy, ox, v, out);
                }
            }
        }
    }

    /// Stores one pixel's 8 biased pre-activation lanes of block `b`.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    fn store8(
        &self,
        g: &ConvGeom,
        act: Option<Activation>,
        b: usize,
        oy: usize,
        ox: usize,
        vals: &[f32; LANES],
        out: &mut [f32],
    ) {
        let real = (g.out_channels - b * LANES).min(LANES);
        match self.layout_out {
            Layout::Chw => {
                for (l, &v) in vals.iter().enumerate().take(real) {
                    out[((b * LANES + l) * g.oh + oy) * g.ow + ox] = apply_act(act, v);
                }
            }
            // Contiguous 8-lane vector store; pad lanes written as explicit
            // zeros so blocked buffers stay clean for downstream converts.
            Layout::Chwc8 => {
                let mut sv = [0.0f32; LANES];
                for l in 0..real {
                    sv[l] = apply_act(act, vals[l]);
                }
                let o = ((b * g.oh + oy) * g.ow + ox) * LANES;
                out[o..o + LANES].copy_from_slice(&sv);
            }
            Layout::Nhwc => {
                let o = (oy * g.ow + ox) * g.out_channels + b * LANES;
                for (l, &v) in vals.iter().enumerate().take(real) {
                    out[o + l] = apply_act(act, v);
                }
            }
        }
    }

    /// One output pixel, its kernel window clipped to the input, for the
    /// `NB` output blocks starting at `b0`, 8 lanes each; the blocks'
    /// accumulator chains are independent, so they advance side by side.
    /// Serves border pixels of standard convs and every depthwise pixel.
    /// In-bounds taps follow the exact dense order; FP16 chunk positions
    /// count only in-bounds taps, matching the reference border semantics.
    fn border_pixel<const NB: usize, const FP16: bool>(
        &self,
        x: &[f32],
        g: &ConvGeom,
        b0: usize,
        oy: usize,
        ox: usize,
    ) -> [[f32; LANES]; NB] {
        let wbs: [&[[f32; LANES]]; NB] = std::array::from_fn(|k| &self.w[b0 + k][..]);
        let bvs: [[f32; LANES]; NB] = std::array::from_fn(|k| self.bias_v[b0 + k]);
        let mut acc = if FP16 { [[0.0f32; LANES]; NB] } else { bvs };
        let mut carry = [[0.0f64; LANES]; NB];
        let mut ic = 0usize;
        // In-bounds kernel rows and columns of this pixel's window.
        let window = |o: usize, pad: isize, k: usize, dim: usize| {
            let start = (o * g.s) as isize - pad;
            let lo = (-start).clamp(0, k as isize) as usize;
            let hi = (dim as isize - start).clamp(0, k as isize) as usize;
            (start, lo, hi)
        };
        let (y0, ky_lo, ky_hi) = window(oy, g.ph, g.kh, g.ih);
        let (x0, kx_lo, kx_hi) = window(ox, g.pw, g.kw, g.iw);
        let channels = if self.depthwise { 1 } else { g.in_shape[0] };
        for c_in in 0..channels {
            for ky in ky_lo..ky_hi {
                let iy = (y0 + ky as isize) as usize;
                let row = self.layout_in.index(g.in_shape, c_in, iy, 0);
                let tap0 = (c_in * g.kh + ky) * g.kw;
                for kx in kx_lo..kx_hi {
                    let ix = (x0 + kx as isize) as usize;
                    let tap = tap0 + kx;
                    if self.depthwise {
                        for k in 0..NB {
                            let xv = self.dw_load(x, g, b0 + k, iy, ix);
                            acc[k] = mac8::<FP16>(acc[k], xv, wbs[k][tap]);
                        }
                    } else {
                        let xv = [x[row + ix * self.in_mul]; LANES];
                        for k in 0..NB {
                            acc[k] = mac8::<FP16>(acc[k], xv, wbs[k][tap]);
                        }
                    }
                    if FP16 {
                        ic += 1;
                        if ic == self.chunk {
                            for k in 0..NB {
                                flush8(&mut carry[k], &mut acc[k]);
                            }
                            ic = 0;
                        }
                    }
                }
            }
        }
        if FP16 {
            std::array::from_fn(|k| finish8(carry[k], acc[k], bvs[k]))
        } else {
            acc
        }
    }

    /// 8 channel lanes of a depthwise input pixel; lanes past the real
    /// channel count are zero (their weights are zero too).
    #[inline(always)]
    fn dw_load(&self, x: &[f32], g: &ConvGeom, b: usize, iy: usize, ix: usize) -> [f32; LANES] {
        let real = (g.out_channels - b * LANES).min(LANES);
        let mut v = [0.0f32; LANES];
        match self.layout_in {
            Layout::Nhwc => {
                let o = (iy * g.iw + ix) * g.in_shape[0] + b * LANES;
                v[..real].copy_from_slice(&x[o..o + real]);
            }
            Layout::Chw => {
                for (l, lane) in v.iter_mut().enumerate().take(real) {
                    *lane = x[((b * LANES + l) * g.ih + iy) * g.iw + ix];
                }
            }
            Layout::Chwc8 => {
                for (l, lane) in v.iter_mut().enumerate().take(real) {
                    *lane = x[Layout::Chwc8.index(g.in_shape, b * LANES + l, iy, ix)];
                }
            }
        }
        v
    }
}

/// The interior micro-kernel: `T` output pixels × 8 output channels advance
/// through every tap with precomputed physical deltas (no bounds checks).
/// Returns biased pre-activation values.
#[inline(always)]
fn std_tile<const T: usize, const FP16: bool>(
    x: &[f32],
    wb: &[[f32; LANES]],
    deltas: &[isize],
    base: usize,
    xs: usize,
    bv: [f32; LANES],
    chunk: usize,
) -> [[f32; LANES]; T] {
    let mut acc = [[0.0f32; LANES]; T];
    if !FP16 {
        acc.fill(bv);
    }
    let mut carry = [[0.0f64; LANES]; T];
    let ntaps = deltas.len();
    let full = if FP16 { ntaps / chunk } else { 0 };
    let mut tap = 0usize;
    for _ in 0..full {
        for _ in 0..chunk {
            std_step::<T, FP16>(x, wb[tap], deltas[tap], base, xs, &mut acc);
            tap += 1;
        }
        for t in 0..T {
            flush8(&mut carry[t], &mut acc[t]);
        }
    }
    while tap < ntaps {
        std_step::<T, FP16>(x, wb[tap], deltas[tap], base, xs, &mut acc);
        tap += 1;
    }
    if FP16 {
        std::array::from_fn(|t| finish8(carry[t], acc[t], bv))
    } else {
        acc
    }
}

/// One tap of the interior micro-kernel: broadcast the input value of each
/// tile position against 8 weight lanes and accumulate.
#[inline(always)]
fn std_step<const T: usize, const FP16: bool>(
    x: &[f32],
    wv: [f32; LANES],
    delta: isize,
    base: usize,
    xs: usize,
    acc: &mut [[f32; LANES]; T],
) {
    let src = (base as isize + delta) as usize;
    for t in 0..T {
        acc[t] = mac8::<FP16>(acc[t], [x[src + t * xs]; LANES], wv);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trtsim_util::rng::Pcg32;

    #[test]
    fn round_f16_slice_matches_scalar_round_f16() {
        let mut vals: Vec<f32> = vec![
            0.0,
            -0.0,
            1.0,
            1.0 / 3.0,
            -1.0 / 3.0,
            6.103_515_6e-5, // smallest normal f16
            -6.103_515_6e-5,
            5.960_464_5e-8, // smallest subnormal f16
            2.980_232_2e-8, // exactly half the smallest subnormal: tie
            -2.980_232_3e-8,
            1e-9,
            -1e-9,
            32_768.0,
            -32_768.0,
            40_000.0,
            65_504.0,
            65_520.0, // overflow boundary
            70_000.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            f32::from_bits(0x7fa0_0000), // NaN payloads the hardware keeps
            f32::from_bits(0xff80_2001),
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE,
        ];
        let mut rng = Pcg32::seed_from_u64(99);
        for _ in 0..4096 {
            vals.push(rng.normal() as f32);
            vals.push((rng.normal() as f32) * 1e-5); // subnormal-heavy
            vals.push((rng.normal() as f32) * 1e4);
        }
        let mut lanes = vals.clone();
        let finite = round_f16_slice(&mut lanes);
        assert!(!finite, "infinities must be reported non-finite");
        for (&src, &got) in vals.iter().zip(&lanes) {
            let want = round_f16(src);
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "round_f16_slice({src:e}) = {got:e}, want {want:e}"
            );
        }
        // All-finite slices report finite.
        let mut small = vec![1.5f32, -0.25, 3.0e4, 1.0e-6, 0.0];
        assert!(round_f16_slice(&mut small));
    }

    /// Asserts `round8` equals the scalar oracle bit for bit on `vals`.
    fn assert_round8_exact(vals: &[f32]) {
        for c in vals.chunks(LANES) {
            let mut v = [0.0f32; LANES];
            v[..c.len()].copy_from_slice(c);
            let got = round8(v);
            for (&src, &r) in v.iter().zip(&got) {
                let want = round_f16(src);
                assert_eq!(
                    r.to_bits(),
                    want.to_bits(),
                    "round8({src:e} = {:#010x}) = {r:e}, want {want:e}",
                    src.to_bits()
                );
            }
        }
    }

    #[test]
    fn round8_exact_on_every_binary16_value_and_tie() {
        use trtsim_util::F16;
        // Every finite binary16 value, then the f32 midpoint between each
        // pair of neighbours (a tie; binary16 significands are short
        // enough that it is exact in f32) and ±1 f32 ulp around it.
        let grid: Vec<f32> = (0..=u16::MAX)
            .map(|h| F16(h).to_f32())
            .filter(|v| v.is_finite())
            .collect();
        assert_eq!(grid.len(), 2 * 0x7c00);
        assert_round8_exact(&grid);
        let mut ties = Vec::new();
        for sign in [1.0f32, -1.0] {
            // Magnitudes 0 ..= 65504 in order, then 65536: the tie with
            // the first unrepresentable step rounds to infinity.
            let mut mags: Vec<f32> = (0..0x7c00u16).map(|h| F16(h).to_f32()).collect();
            mags.push(65_536.0);
            for w in mags.windows(2) {
                let mid = sign * (w[0] + w[1]) / 2.0;
                let bits = mid.to_bits();
                ties.extend([mid, f32::from_bits(bits - 1), f32::from_bits(bits + 1)]);
            }
        }
        assert_round8_exact(&ties);
    }

    #[test]
    fn round8_exact_at_range_edges() {
        let min_normal = 6.103_515_6e-5f32; // 2^-14
        let max_subnormal = min_normal - 5.960_464_5e-8; // 2^-14 - 2^-24
        let mut vals = vec![
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            -f32::NAN,
            f32::MAX,
            f32::MIN,
            f32::MIN_POSITIVE,
            f32::from_bits(1), // smallest f32 subnormal
            2.980_232_2e-8,    // 2^-25: half the smallest binary16 subnormal
            65_504.0,
            65_519.996,
            65_520.0,
            65_520.004,
            32_768.0,
            40_000.5,
        ];
        for v in [
            min_normal,
            max_subnormal,
            65_504.0,
            65_520.0,
            2.980_232_2e-8,
        ] {
            for d in -4i32..=4 {
                vals.push(f32::from_bits((v.to_bits() as i32 + d) as u32));
            }
        }
        let neg: Vec<f32> = vals.iter().map(|v| -v).collect();
        vals.extend(neg);
        assert_round8_exact(&vals);
    }

    #[test]
    fn lane_counters_are_monotone() {
        let v0 = vector_lane_events();
        let s0 = scalar_fallback_events();
        note_vector_values(3);
        note_scalar_values(2);
        assert!(vector_lane_events() >= v0 + 3);
        assert!(scalar_fallback_events() >= s0 + 2);
    }
}
