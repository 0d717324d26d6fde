//! # kconv-core — memory-efficient GPU convolution kernels
//!
//! A faithful reimplementation, on the [`kconv_sim`] Kepler-class
//! simulator, of *"Optimizing Memory Efficiency for Convolution Kernels on
//! Kepler GPUs"* (Chen, Chen, Chen, Hu — DAC 2017):
//!
//! * [`SpecialConv`] — the **communication-optimized special-case kernel**
//!   (one input channel, paper section 3 / Algorithm 1): filters in
//!   constant memory, rows streamed through shared memory with register
//!   prefetch, `n`-pixel vectorized accesses matching the bank width, and
//!   each tile pixel read from global memory exactly once. The same
//!   kernel body runs the section-6 short data types: pick a [`Storage`]
//!   (f32, fp16, half2-packed fp16 or int8), or let
//!   [`SpecialConv::for_shape`] pick it from a generator [`KernelShape`].
//! * [`GeneralConv`] — the **communication-reduced general-case kernel**
//!   (paper section 4 / Algorithm 2): blocked-GEMM thread structure with
//!   contiguous outputs per thread, shared-memory staging of `C_SH`
//!   channels and transposed padded filters, and `F_T x W_T` register
//!   accumulators. The paper's Table 1 configurations ship as presets
//!   ([`GeneralConfig::table1`]); the exploration that produced them is in
//!   [`tune`].
//! * [`ImplicitGemmConv`] — the **cuDNN-like baseline** (implicit GEMM with
//!   on-the-fly `im2col` staging), and [`ExplicitGemmConv`] — the
//!   Caffe-like explicit `im2col` + SGEMM baseline.
//! * [`model`] — the paper's closed-form traffic model, cross-checked
//!   against simulator counters in tests.
//! * [`BandwidthProbe`] — the section-6 short-data-type extension:
//!   `fp16`/`int8` reintroduce the bank-width mismatch even on 4-byte-bank
//!   architectures.
//!
//! All implementations share the [`Convolution`] trait and validate their
//! outputs against the CPU reference ([`conv_reference`]).
//!
//! ## Quickstart
//!
//! ```
//! use kconv_core::{Convolution, SpecialConv, ImplicitGemmConv};
//! use kconv_sim::{Gpu, GpuSpec, SimMode};
//! use kconv_tensor::{random_maps, random_filters, ConvProblem};
//!
//! # fn main() -> Result<(), kconv_core::ConvError> {
//! // A 3x3 edge-detector bank over a 256x256 grayscale image.
//! let problem = ConvProblem::special(256, 8, 3);
//! let input = random_maps(1, 256, 256, 1);
//! let filters = random_filters(8, 1, 3, 2);
//!
//! let mut gpu = Gpu::new(GpuSpec::kepler_k40m());
//! let ours = SpecialConv::default().run(&mut gpu, &problem, &input, &filters, SimMode::Full)?;
//! let cudnn = ImplicitGemmConv::default().run(&mut gpu, &problem, &input, &filters, SimMode::Full)?;
//!
//! // Same numbers...
//! ours.verify_executed(&problem, &input, &filters, kconv_tensor::CONV_TOL).unwrap();
//! cudnn.verify_executed(&problem, &input, &filters, kconv_tensor::CONV_TOL).unwrap();
//! // ...far less modeled time (the paper reports 5.16x on average).
//! assert!(ours.report.seconds() < cudnn.report.seconds());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod batch;
mod config;
mod dtype;
mod error;
mod explicit_gemm;
mod general;
mod implicit_gemm;
pub mod model;
mod naive;
mod reference;
mod run;
mod shape;
mod special;
pub mod tune;
pub mod winograd;

pub use batch::{run_batch, BatchRun};
pub use config::{GeneralConfig, SpecialConfig, FLT_PAD};
pub use dtype::{BandwidthProbe, DataType, ProbeResult};
pub use error::{ConvError, Result, RetryClass};
pub use explicit_gemm::ExplicitGemmConv;
pub use general::{GeneralConv, GeneralConvStrided};
pub use implicit_gemm::{ImplicitGemmConfig, ImplicitGemmConv};
pub use naive::NaiveConv;
pub use reference::{conv_reference, conv_reference_region, OutRegion};
pub use run::{run_verified, run_with_fallback, ConvRun, Convolution, FaultRecord};
pub use shape::KernelShape;
pub use special::{
    quantize_maps, Encoding, FusedBatchRun, SpecialConv, Storage, F16_TOL, I8_TOL, MAX_K,
};
