//! # kconv — memory-efficient GPU convolution kernels, reproduced in Rust
//!
//! A full reproduction of *"Optimizing Memory Efficiency for Convolution
//! Kernels on Kepler GPUs"* (Chen, Chen, Chen, Hu — DAC 2017) as a pure-Rust
//! workspace: the paper's two direct-convolution kernels and its baselines,
//! running on a warp-level simulator of the Kepler memory hierarchy.
//!
//! This facade crate re-exports the workspace:
//!
//! * [`sim`] — the GPU simulator (shared-memory banks, coalescing,
//!   constant-memory broadcast, timing model);
//! * [`tensor`] — host tensors and problem descriptors;
//! * [`core`] — the paper's kernels, baselines, traffic model and tuner;
//! * [`arch`] — the architecture-adaptive kernel generator: derives the
//!   matched vector factor for any spec/dtype (eq. 1 in reverse) and
//!   proves it by trace replay;
//! * [`systolic`] — the double-buffered staging pipeline executor:
//!   ping/pong shared-memory rounds (one barrier per round instead of two)
//!   over the strided/dilated/depthwise workload matrix;
//! * [`gemm`] — the blocked SGEMM kernels of the Fig. 2 motivation
//!   experiment;
//! * [`trace`] — binary warp traces and memory-efficiency analysis on top
//!   of the simulator's [`TraceSink`](kconv_sim::TraceSink) hook;
//! * [`replay`] — the trace-driven replay engine: re-prices captured
//!   traces under an arbitrary [`GpuSpec`](kconv_sim::GpuSpec) without
//!   re-executing the kernel;
//! * [`apps`] — image processing and CNN layer stacks on the public API;
//! * [`serve`] — the resilient request-serving layer: admission control,
//!   shape-batched dispatch over simulated streams, deadlines, retries,
//!   circuit breakers and chaos-testable fault isolation.
//!
//! The [`prelude`] pulls in the names a typical user needs.
//!
//! ## Quickstart
//!
//! ```
//! use kconv::prelude::*;
//!
//! # fn main() -> Result<(), kconv::core::ConvError> {
//! let mut gpu = Gpu::new(GpuSpec::kepler_k40m());
//! let problem = ConvProblem::special(128, 4, 3);
//! let image = random_maps(1, 128, 128, 1);
//! let filters = random_filters(4, 1, 3, 2);
//!
//! let run = SpecialConv::default().run(&mut gpu, &problem, &image, &filters, SimMode::Full)?;
//! println!("{:.1} GFlop/s (modeled)", run.effective_gflops(&problem));
//! run.verify_executed(&problem, &image, &filters, CONV_TOL).expect("correct");
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub use kconv_apps as apps;
pub use kconv_arch as arch;
pub use kconv_core as core;
pub use kconv_gemm as gemm;
pub use kconv_replay as replay;
pub use kconv_serve as serve;
pub use kconv_sim as sim;
pub use kconv_systolic as systolic;
pub use kconv_tensor as tensor;
pub use kconv_trace as trace;

/// The most commonly used names of the workspace, re-exported flat.
pub mod prelude {
    pub use kconv_apps::{edge_detect, smooth, template_match, Engine, LayerStack};
    pub use kconv_core::{
        conv_reference, ConvRun, Convolution, ExplicitGemmConv, GeneralConfig, GeneralConv,
        ImplicitGemmConv, SpecialConfig, SpecialConv, Storage,
    };
    pub use kconv_gemm::{launch_gemm, GemmConfig, GemmShape};
    pub use kconv_sim::{Gpu, GpuSpec, Parallelism, SimMode};
    pub use kconv_systolic::{PipelineConfig, SystolicConv};
    pub use kconv_tensor::{
        random_filters, random_image, random_maps, ConvProblem, FeatureMaps, FilterSet, Image,
        CONV_TOL,
    };
}
