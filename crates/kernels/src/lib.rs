//! The simulated CUDA kernel catalog: tactics, costs, and numerics.
//!
//! TensorRT maps each (fused) network layer onto one of many pre-implemented
//! CUDA kernels — *tactics* — by measuring candidates on the target device and
//! keeping the fastest (the paper's Figure 2, step 5). This crate provides the
//! catalog those measurements choose from:
//!
//! * [`tactic`] — tactic descriptors: tile geometry, precision, accumulation
//!   order, and the TensorRT-style kernel names the paper's nvprof traces
//!   show (`trt_volta_h884cudnn_256x64_ldg8_relu_exp_small_nhwc_tn_v1`, …).
//! * [`catalog`] — which tactics apply to which layer, with shape-dependent
//!   applicability (exactly like cuDNN's heuristics).
//! * [`cost`] — converting a (tactic, layer shape) pair into a
//!   [`trtsim_gpu::kernel::KernelDesc`] for the timing model: grid geometry
//!   from tile quantization, DRAM/L2 traffic from panel reuse, per-block L2
//!   working sets from tile footprints.
//! * [`numeric`] — order-sensitive numeric execution. `h884` kernels
//!   accumulate in FP16, so *different tile sizes produce different results
//!   on the same input* — the mechanism behind the paper's Finding 2 (output
//!   labels differ across engine builds).
//! * [`lanes`] — branch-free `[f32; 8]` lane-array micro-kernels behind the
//!   prepared conv/FC paths, with per-tactic blocked data layouts (`CHWc8`,
//!   `NHWC`). FP16 lanes round through the exact 8-lane binary16 round trip
//!   (F16C hardware conversion where available), so they stay bit-identical
//!   to the reference path with no range guard.
//! * [`generic`] — the un-optimized framework path: one naive im2col+GEMM
//!   FP32 kernel per layer, with framework-glue overheads. This is the
//!   baseline that TensorRT beats by 23–27× in Table VII.

#![warn(missing_docs)]

pub mod catalog;
pub mod cost;
pub mod generic;
pub mod lanes;
pub mod numeric;
pub mod tactic;

pub use catalog::candidate_tactics;
pub use tactic::{AccumOrder, Tactic, TacticFamily};
