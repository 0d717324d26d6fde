//! The communication-optimized special-case kernel (paper section 3) and
//! its section-6 short-data-type extension.
//!
//! For single-channel input (`C = 1`) — the first layer of CNNs on
//! grayscale images and most classic image-processing workloads — the
//! filters fit in constant memory and every pixel a convolution needs can
//! live in registers. The kernel is built so that
//!
//! * each input pixel of a tile is read from global memory **exactly
//!   once** (the theoretical lower bound, up to tile halos);
//! * the shared memory provides *horizontal* (inter-thread) data sharing,
//!   one streamed row at a time, while a `K x (K + n - 1)` register window
//!   per thread provides *vertical* (intra-thread) sharing;
//! * every thread reads, computes and writes `n = W_SMB / W_CD` pixels as a
//!   single unit, matching the computation data width to the shared-memory
//!   bank width (`float2` on Kepler — [`SpecialConfig::vec_width`] = 2);
//! * all warps read each filter tap from constant memory at the same
//!   uniform address (the broadcast fast path), and the next image row is
//!   prefetched into registers while the current row is convolved
//!   (Algorithm 1 of the paper).
//!
//! Setting `vec_width = 1` yields the *unmatched* kernel of the paper's
//! Fig. 7b ablation.
//!
//! The paper closes by predicting its bank-width model pays off even more
//! for short data types: `W_CD` = 2 bytes (fp16) gives `n = 4` on Kepler,
//! `W_CD` = 1 byte (int8 fixed point) gives `n = 8` — and a mismatch exists
//! even on 4-byte-bank architectures. Short types change only `W_CD`, so
//! one Algorithm-1 body serves every [`Storage`]: image rows and outputs
//! move through global and shared memory as `elem_bytes`-wide elements,
//! `vec_width` of them per thread per access, and are widened to `f32` in
//! registers for the FMAs (the standard mixed-precision scheme of the era).
//! Besides restoring the shared-memory fabric, narrow storage divides the
//! global-memory traffic by 2 (fp16) or 4 (int8) — and the `F`-map write
//! stream is exactly what bounds the f32 kernel at large `F`, so the
//! matched narrow kernels are the fastest convolutions in this workspace.

use kconv_sim::{
    lane_addrs_from, lane_addrs_uniform, BlockCtx, GmBuf, Gpu, LaneMask, LaunchConfig, OverlapMode,
    SimMode, WARP_SIZE,
};
use kconv_tensor::{
    f16_bits_to_f32, f16_roundtrip, f32_to_f16_bits, pack_f16x2, unpack_f16x2, ConvProblem,
    FeatureMaps, FilterSet, CONV_TOL,
};

use crate::config::{round_up, SpecialConfig};
use crate::dtype::DataType;
use crate::error::{ConvError, Result};
use crate::run::{executed_tile_regions, ConvRun, Convolution};
use crate::shape::KernelShape;

/// Comparison tolerance for fp16-stored convolutions (re-exported from
/// [`kconv_tensor`], where the bound is documented next to the comparison
/// helpers that use it).
pub use kconv_tensor::F16_TOL;

/// Comparison tolerance for int8-stored convolutions: with |image| <= 1
/// inputs and the filter-norm output scale, quantization noise stays well
/// inside this bound.
pub const I8_TOL: f32 = 8e-2;

/// Largest filter size the kernel supports (bounds its per-thread tap
/// buffer; 13x13 covers every filter the paper and the applications use).
pub const MAX_K: usize = 13;

/// How the special-case kernel stores pixels and filter taps in device
/// memory. [`SpecialConfig::vec_width`] counts elements of this storage.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum Storage {
    /// `f32` pixels and taps: the paper's kernel (`n = 2` matched on
    /// Kepler).
    #[default]
    F32,
    /// IEEE binary16 pixels, exact `f32` taps in constant memory (`n = 4`
    /// matched on Kepler, 2 on 4-byte-bank parts).
    F16,
    /// binary16 pixels **and** binary16 taps packed two per 4-byte
    /// constant-memory word (CUDA's `__half2` idiom): halves the tap
    /// broadcasts at fp16 tap precision. The generator's fp16 variant.
    Half2,
    /// Symmetric 8-bit fixed point with per-tensor scales derived from the
    /// data on each run ([`Encoding::i8_for`]; `n = 8` matched on Kepler).
    I8,
}

impl Storage {
    /// The special kernel's storage for a computation data type: `f32`
    /// stores `f32`, `fp16` stores half2 (packed taps), `int8` stores int8.
    pub fn for_dtype(dtype: DataType) -> Self {
        match dtype {
            DataType::F32 => Storage::F32,
            DataType::F16 => Storage::Half2,
            DataType::I8 => Storage::I8,
        }
    }

    /// The computation data type of one stored pixel.
    pub fn dtype(self) -> DataType {
        match self {
            Storage::F32 => DataType::F32,
            Storage::F16 | Storage::Half2 => DataType::F16,
            Storage::I8 => DataType::I8,
        }
    }

    /// Bytes of one stored pixel (`W_CD`).
    pub fn elem_bytes(self) -> usize {
        self.dtype().bytes()
    }

    /// Constant-memory bytes holding `filters` filters of `k x k` taps:
    /// one 4-byte word per tap, or per tap pair for [`Storage::Half2`].
    pub(crate) fn tap_bytes(self, k: usize, filters: usize) -> usize {
        let words = match self {
            Storage::Half2 => (k * k).div_ceil(2),
            _ => k * k,
        };
        filters * words * 4
    }

    /// The pixel encoding a run of `input` against `filters` uses.
    fn encoding(self, input: &FeatureMaps, filters: &FilterSet) -> Encoding {
        match self {
            Storage::F32 => Encoding::F32,
            Storage::F16 | Storage::Half2 => Encoding::F16,
            Storage::I8 => Encoding::i8_for(input, filters),
        }
    }

    /// What a run with this storage effectively convolves — the input (and,
    /// for half2, the taps) after storage quantization — and the tolerance
    /// its output must meet against [`crate::conv_reference`] on them.
    pub fn oracle(self, input: &FeatureMaps, filters: &FilterSet) -> (FeatureMaps, FilterSet, f32) {
        let maps = quantize_maps(input, self.encoding(input, filters));
        match self {
            Storage::F32 => (maps, filters.clone(), CONV_TOL),
            Storage::F16 => (maps, filters.clone(), F16_TOL),
            Storage::Half2 => {
                let taps = filters.as_slice().iter().map(|&v| f16_roundtrip(v));
                let (count, k) = (filters.count(), filters.k());
                let taps = FilterSet::from_vec(count, filters.channels(), k, taps.collect());
                (maps, taps, F16_TOL)
            }
            Storage::I8 => (maps, filters.clone(), I8_TOL),
        }
    }

    /// Label inserted into kernel names (`"special fp16 (...)"`).
    fn tag(self) -> &'static str {
        match self {
            Storage::F32 => "",
            Storage::F16 => " fp16",
            Storage::Half2 => " half2",
            Storage::I8 => " int8",
        }
    }
}

/// How pixel values are encoded in device memory.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Encoding {
    /// IEEE binary32 (a plain little-endian copy).
    F32,
    /// IEEE binary16.
    F16,
    /// Symmetric fixed point: `stored_i8 = round(value / scale)`, clamped
    /// to `[-127, 127]`. Separate scales for input and output tensors.
    I8 {
        /// Input quantization step.
        scale_in: f32,
        /// Output quantization step.
        scale_out: f32,
    },
}

impl Encoding {
    /// The int8 encoding for convolving `input` with `filters`: the input
    /// step is `max|x| / 127`; the output step applies the worst-case
    /// amplification bound `max_f sum |w_f|` to that input range. Both are
    /// at least 1/127, so all-zero data still quantizes.
    pub fn i8_for(input: &FeatureMaps, filters: &FilterSet) -> Self {
        let max_in = input.as_slice().iter().fold(0.0f32, |m, v| m.max(v.abs()));
        let per_filter = filters.channels() * filters.k() * filters.k();
        let worst = filters
            .as_slice()
            .chunks(per_filter)
            .map(|w| w.iter().fold(0.0f32, |s, v| s + v.abs()))
            .fold(0.0f32, f32::max);
        Encoding::I8 {
            scale_in: (max_in / 127.0).max(1.0 / 127.0),
            scale_out: (max_in * worst / 127.0).max(1.0 / 127.0),
        }
    }

    /// Storage width `W_CD` in bytes.
    pub fn elem_bytes(self) -> usize {
        match self {
            Encoding::F32 => 4,
            Encoding::F16 => 2,
            Encoding::I8 { .. } => 1,
        }
    }

    /// Stores `src` into `dst` (`elem_bytes` per value); `output` picks the
    /// int8 output scale instead of the input scale.
    fn encode(self, src: &[f32], dst: &mut [u8], output: bool) {
        debug_assert_eq!(dst.len(), src.len() * self.elem_bytes());
        match self {
            Encoding::F32 => {
                for (v, d) in src.iter().zip(dst.chunks_exact_mut(4)) {
                    d.copy_from_slice(&v.to_le_bytes());
                }
            }
            Encoding::F16 => {
                for (v, d) in src.iter().zip(dst.chunks_exact_mut(2)) {
                    d.copy_from_slice(&f32_to_f16_bits(*v).to_le_bytes());
                }
            }
            Encoding::I8 {
                scale_in,
                scale_out,
            } => {
                let scale = if output { scale_out } else { scale_in };
                for (v, d) in src.iter().zip(dst) {
                    *d = (v / scale).round().clamp(-127.0, 127.0) as i8 as u8;
                }
            }
        }
    }

    /// Loads values stored by [`Encoding::encode`] from `src` into `dst`.
    fn decode(self, src: &[u8], dst: &mut [f32], output: bool) {
        debug_assert_eq!(src.len(), dst.len() * self.elem_bytes());
        match self {
            Encoding::F32 => {
                for (b, d) in src.chunks_exact(4).zip(dst) {
                    *d = f32::from_le_bytes([b[0], b[1], b[2], b[3]]);
                }
            }
            Encoding::F16 => {
                for (b, d) in src.chunks_exact(2).zip(dst) {
                    *d = f16_bits_to_f32(u16::from_le_bytes([b[0], b[1]]));
                }
            }
            Encoding::I8 {
                scale_in,
                scale_out,
            } => {
                let scale = if output { scale_out } else { scale_in };
                for (b, d) in src.iter().zip(dst) {
                    *d = (*b as i8) as f32 * scale;
                }
            }
        }
    }
}

/// Quantizes feature maps through an encoding (`f32 -> storage -> f32`) —
/// the input a narrow kernel effectively convolves; pass the result to the
/// reference when validating (or use [`Storage::oracle`]).
pub fn quantize_maps(maps: &FeatureMaps, enc: Encoding) -> FeatureMaps {
    let values = maps.as_slice();
    let mut bytes = vec![0u8; values.len() * enc.elem_bytes()];
    enc.encode(values, &mut bytes, false);
    let mut data = vec![0.0f32; values.len()];
    enc.decode(&bytes, &mut data, false);
    FeatureMaps::from_vec(maps.channels(), maps.height(), maps.width(), data)
}

/// The special-case (`C = 1`) direct convolution kernel, in any
/// [`Storage`].
///
/// # Examples
///
/// ```
/// use kconv_core::{SpecialConv, SpecialConfig, Storage, Convolution};
/// use kconv_sim::{Gpu, GpuSpec, SimMode};
/// use kconv_tensor::{random_maps, random_filters, ConvProblem};
///
/// # fn main() -> Result<(), kconv_core::ConvError> {
/// let problem = ConvProblem::special(64, 4, 3);
/// let input = random_maps(1, 64, 64, 7);
/// let filters = random_filters(4, 1, 3, 8);
/// let mut gpu = Gpu::new(GpuSpec::kepler_k40m());
/// let run = SpecialConv::default().run(&mut gpu, &problem, &input, &filters, SimMode::Full)?;
/// assert!(run
///     .verify_executed(&problem, &input, &filters, kconv_tensor::CONV_TOL)
///     .is_ok());
///
/// // fp16 storage, 4 elements (one 8-byte bank word) per access: the
/// // output matches the reference on the fp16-quantized input.
/// let fp16 = SpecialConv {
///     config: SpecialConfig::with_vec_width(4),
///     storage: Storage::F16,
/// };
/// let run = fp16.run(&mut gpu, &problem, &input, &filters, SimMode::Full)?;
/// let (input_q, filters_q, tol) = Storage::F16.oracle(&input, &filters);
/// run.verify_executed(&problem, &input_q, &filters_q, tol).unwrap();
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct SpecialConv {
    /// Tiling and vector-width configuration (`vec_width` in elements of
    /// `storage`).
    pub config: SpecialConfig,
    /// How pixels and taps are stored.
    pub storage: Storage,
}

impl SpecialConv {
    /// Creates the `f32` kernel with the given configuration.
    pub fn new(config: SpecialConfig) -> Self {
        SpecialConv {
            config,
            storage: Storage::F32,
        }
    }

    /// The kernel for a generator shape: [`Storage::for_dtype`] on the
    /// paper's tile with `vec_width = shape.vec_width`.
    pub fn for_shape(shape: KernelShape) -> Self {
        SpecialConv {
            config: SpecialConfig::with_vec_width(shape.vec_width),
            storage: Storage::for_dtype(shape.dtype),
        }
    }
}

/// Result of a fused-batch launch of the special kernel: all images in a
/// single grid of `batch x tiles` blocks.
#[derive(Debug, Clone)]
pub struct FusedBatchRun {
    /// Per-image outputs, in input order.
    pub outputs: Vec<FeatureMaps>,
    /// The single launch's counters and timing.
    pub report: kconv_sim::LaunchReport,
    /// Executed `(image, region)` pairs (clipped to the output).
    pub executed: Vec<(usize, crate::OutRegion)>,
}

impl FusedBatchRun {
    /// Validates every executed region of every image against the CPU
    /// reference.
    ///
    /// # Errors
    ///
    /// Returns a description of the first mismatching element.
    pub fn verify_executed(
        &self,
        problem: &ConvProblem,
        inputs: &[FeatureMaps],
        filters: &FilterSet,
        tol: f32,
    ) -> std::result::Result<(), String> {
        for &(img, region) in &self.executed {
            let want =
                crate::reference::conv_reference_region(problem, &inputs[img], filters, region);
            for f in 0..region.nf {
                for y in 0..region.h {
                    for x in 0..region.w {
                        let got =
                            self.outputs[img].get(region.f0 + f, region.y0 + y, region.x0 + x);
                        let e = kconv_tensor::combined_error(got, want.get(f, y, x));
                        if e > tol {
                            return Err(format!(
                                "image {img}, filter {}, output ({}, {}): got {got} want {} (error {e:.2e})",
                                region.f0 + f,
                                region.y0 + y,
                                region.x0 + x,
                                want.get(f, y, x)
                            ));
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

impl SpecialConv {
    /// Runs a whole batch in **one launch**: the grid is `batch x tiles`
    /// blocks, so small images still fill the machine and the per-launch
    /// overhead is paid once (compare [`run_batch`](crate::run_batch),
    /// which launches per image). `f32` storage only.
    ///
    /// # Errors
    ///
    /// As [`Convolution::run`], plus [`ConvError::Shape`] for an empty or
    /// shape-mismatched batch and [`ConvError::Config`] for a storage other
    /// than [`Storage::F32`].
    pub fn run_fused_batch(
        &self,
        gpu: &mut Gpu,
        problem: &ConvProblem,
        inputs: &[FeatureMaps],
        filters: &FilterSet,
        mode: SimMode,
    ) -> Result<FusedBatchRun> {
        if self.storage != Storage::F32 {
            return Err(ConvError::Config(format!(
                "fused batches are f32-only, got {:?} storage",
                self.storage
            )));
        }
        if inputs.is_empty() {
            return Err(ConvError::Shape("empty batch".into()));
        }
        let g = self.prepare(gpu, problem, inputs, filters, Encoding::F32)?;
        let batch = inputs.len();
        let tiles = g.tiles_x * g.tiles_y;
        let (in_bytes, out_bytes) = (g.in_bytes(), g.out_bytes());

        // One allocation per tensor with per-image slots (256-byte aligned so
        // vectorized accesses stay aligned in every slot).
        let in_slot = round_up(in_bytes, 256);
        let out_slot = round_up(out_bytes, 256);
        let d_in_all = gpu.alloc_bytes((batch * in_slot) as u64)?;
        let d_out_all = gpu.alloc_bytes((batch * out_slot) as u64)?;
        for (i, input) in inputs.iter().enumerate() {
            let view = d_in_all.subbuffer((i * in_slot) as u64, in_bytes as u64);
            gpu.upload_bytes(view, &g.encode_input(input))?;
        }
        upload_taps(gpu, &g, filters)?;

        let name = format!("special-batch{batch} K={} n={}", g.k, g.shape.vec_width);
        let launch = g.launch_config(&self.config, name, batch * tiles);
        let report = gpu.launch(&launch, mode, |blk| {
            let img = blk.dims.block_id / tiles;
            let d_in = d_in_all.subbuffer((img * in_slot) as u64, in_bytes as u64);
            let d_out = d_out_all.subbuffer((img * out_slot) as u64, out_bytes as u64);
            // Rewrite the block id so the tile decoding inside the kernel body
            // sees a per-image grid.
            let mut dims = blk.dims;
            dims.block_id %= tiles;
            let saved = std::mem::replace(&mut blk.dims, dims);
            tile_block(blk, &g, d_in, d_out);
            blk.dims = saved;
        })?;

        let mut outputs = Vec::with_capacity(batch);
        for i in 0..batch {
            let view = d_out_all.subbuffer((i * out_slot) as u64, out_bytes as u64);
            outputs.push(g.decode_output(problem, gpu.download_bytes(view, out_bytes)?));
        }
        // Tiles never lie wholly outside the output, so every executed block
        // yields exactly one region, in executed-block order.
        let regions = executed_tile_regions(problem, &report, g.tiles_x, g.tile_w, g.tile_h, |b| {
            (b % tiles, 0, problem.filters)
        });
        let executed = report.executed_blocks.iter().map(|b| b / tiles);
        let executed = executed.zip(regions).collect();
        Ok(FusedBatchRun {
            outputs,
            report,
            executed,
        })
    }

    /// Validates the problem, the inputs and the configuration, and derives
    /// the launch geometry.
    fn prepare(
        &self,
        gpu: &Gpu,
        problem: &ConvProblem,
        inputs: &[FeatureMaps],
        filters: &FilterSet,
        enc: Encoding,
    ) -> Result<Geom> {
        if problem.channels != 1 {
            return Err(ConvError::Shape(format!(
                "special-case kernel requires C = 1, got C = {}",
                problem.channels
            )));
        }
        if problem.stride != 1 {
            return Err(ConvError::Shape(format!(
                "the paper's direct kernels are stride-1 only, got S = {} \
                 (use a GEMM baseline for strided problems)",
                problem.stride
            )));
        }
        crate::run::require_dense(problem)?;
        if inputs.iter().any(|x| !problem.matches(x, filters)) {
            return Err(ConvError::Shape(format!(
                "input/filter shapes do not match {problem}"
            )));
        }
        let cfg = &self.config;
        cfg.validate(gpu.spec(), problem.k, problem.filters, self.storage)
            .map_err(ConvError::Config)?;
        Ok(Geom::new(cfg, problem, self.storage, enc))
    }
}

impl Convolution for SpecialConv {
    fn name(&self) -> String {
        let n = self.config.vec_width;
        let which = if n == 1 {
            "unmatched"
        } else if n * self.storage.elem_bytes() >= 8 {
            "matched"
        } else {
            "partial"
        };
        format!("special{} ({which}, n={n})", self.storage.tag())
    }

    fn run(
        &self,
        gpu: &mut Gpu,
        problem: &ConvProblem,
        input: &FeatureMaps,
        filters: &FilterSet,
        mode: SimMode,
    ) -> Result<ConvRun> {
        let enc = self.storage.encoding(input, filters);
        let g = self.prepare(gpu, problem, std::slice::from_ref(input), filters, enc)?;
        let k = g.k;

        // Device setup: encoded padded image, output, taps in constant memory.
        let d_in = gpu.alloc_bytes(g.in_bytes() as u64)?;
        gpu.upload_bytes(d_in, &g.encode_input(input))?;
        let d_out = gpu.alloc_bytes(g.out_bytes() as u64)?;
        upload_taps(gpu, &g, filters)?;

        let n = self.config.vec_width;
        let name = match self.storage {
            Storage::F32 => format!("special K={k} n={n}"),
            Storage::Half2 => format!("special-half2 K={k} n={n}"),
            s => format!("special-{}B K={k} n={n}", s.elem_bytes()),
        };
        let launch = g.launch_config(&self.config, name, g.tiles_x * g.tiles_y);
        let report = gpu.launch(&launch, mode, |blk| tile_block(blk, &g, d_in, d_out))?;

        // Collect the output (zeros where tiles were not executed).
        let output = g.decode_output(problem, gpu.download_bytes(d_out, g.out_bytes())?);
        let regions = executed_tile_regions(problem, &report, g.tiles_x, g.tile_w, g.tile_h, |b| {
            (b, 0, problem.filters)
        });
        Ok(ConvRun {
            output,
            report,
            executed_regions: regions,
            faults: Vec::new(),
        })
    }
}

/// Geometry shared by the setup code and the per-block closure. The
/// [`KernelShape`] is the single source of truth for the vector factor and
/// element width: every address, mask and pitch computed inside the block
/// body reads `shape` rather than a hard-wired constant, so the same body
/// serves every storage, the Kepler float2 layout, the 4-byte-bank scalar
/// layout and forced-`n` ablations.
struct Geom {
    k: usize,
    f: usize,
    tiles_x: usize,
    tiles_y: usize,
    tile_w: usize,
    tile_h: usize,
    in_pitch: usize,
    in_rows: usize,
    out_pitch: usize,
    out_rows: usize,
    sm_pitch: usize,
    row_len: usize,
    shape: KernelShape,
    enc: Encoding,
    storage: Storage,
}

impl Geom {
    fn new(cfg: &SpecialConfig, problem: &ConvProblem, storage: Storage, enc: Encoding) -> Self {
        let k = problem.k;
        let n = cfg.vec_width;
        let tiles_x = problem.out_width().div_ceil(cfg.width);
        let tiles_y = problem.out_height().div_ceil(cfg.height);
        // Row pitch: the tiled width plus halo, extended so the last tile's
        // full-vector tail loads stay inside the row (vectorized kernels load
        // whole vectors; the buffer provides the headroom, as on real CUDA).
        let row_len = cfg.width + k - 1;
        Geom {
            k,
            f: problem.filters,
            tiles_x,
            tiles_y,
            tile_w: cfg.width,
            tile_h: cfg.height,
            in_pitch: (tiles_x * cfg.width + k - 1)
                .max((tiles_x - 1) * cfg.width + round_up(row_len, n)),
            in_rows: tiles_y * cfg.height + k - 1,
            out_pitch: tiles_x * cfg.width,
            out_rows: tiles_y * cfg.height,
            sm_pitch: cfg.smem_pitch(k),
            row_len,
            shape: KernelShape {
                dtype: storage.dtype(),
                vec_width: n,
            },
            enc,
            storage,
        }
    }

    fn in_bytes(&self) -> usize {
        self.in_rows * self.in_pitch * self.shape.elem_bytes()
    }

    fn out_bytes(&self) -> usize {
        self.f * self.out_rows * self.out_pitch * self.shape.elem_bytes()
    }

    fn launch_config(&self, cfg: &SpecialConfig, name: String, blocks: usize) -> LaunchConfig {
        LaunchConfig::new(name, blocks, cfg.threads())
            .with_smem(cfg.smem_bytes(self.k, self.storage))
            .with_regs(cfg.regs_per_thread(self.k))
            .with_overlap(OverlapMode::Prefetch)
    }

    /// The zero-padded image in device layout.
    fn encode_input(&self, input: &FeatureMaps) -> Vec<u8> {
        let padded = input.channel(0).padded_to(self.in_rows, self.in_pitch);
        let mut bytes = vec![0u8; self.in_bytes()];
        self.enc.encode(padded.as_slice(), &mut bytes, false);
        bytes
    }

    /// The output maps, cropped out of the padded device layout.
    fn decode_output(&self, problem: &ConvProblem, raw: &[u8]) -> FeatureMaps {
        let eb = self.shape.elem_bytes();
        let (oh, ow) = (problem.out_height(), problem.out_width());
        let mut output = FeatureMaps::zeros(self.f, oh, ow);
        let dst = output.as_mut_slice();
        for f in 0..self.f {
            for y in 0..oh {
                let src = (f * self.out_rows + y) * self.out_pitch * eb;
                let at = (f * oh + y) * ow;
                self.enc
                    .decode(&raw[src..src + ow * eb], &mut dst[at..at + ow], true);
            }
        }
        output
    }
}

/// Writes the filter taps to constant memory: one `f32` per word, or two
/// binary16 taps per word for [`Storage::Half2`] (uploaded through the
/// `f32` facade bitwise).
fn upload_taps(gpu: &mut Gpu, g: &Geom, filters: &FilterSet) -> Result<()> {
    if g.storage != Storage::Half2 {
        return Ok(gpu.write_const_f32(0, filters.as_slice())?);
    }
    let kk = g.k * g.k;
    let mut words = Vec::with_capacity(g.f * kk.div_ceil(2));
    for taps in filters.as_slice().chunks(kk) {
        for pair in taps.chunks(2) {
            let hi = pair.get(1).copied().unwrap_or(0.0);
            words.push(f32::from_le_bytes(pack_f16x2(pair[0], hi).to_le_bytes()));
        }
    }
    Ok(gpu.write_const_f32(0, &words)?)
}

/// Runs Algorithm 1 on one tile, instantiated for the geometry's per-lane
/// access width (validated to one of these by [`SpecialConfig::validate`]).
fn tile_block(blk: &mut BlockCtx<'_>, g: &Geom, d_in: GmBuf, d_out: GmBuf) {
    match g.shape.lane_bytes() {
        1 => special_block::<1>(blk, g, d_in, d_out),
        2 => special_block::<2>(blk, g, d_in, d_out),
        4 => special_block::<4>(blk, g, d_in, d_out),
        8 => special_block::<8>(blk, g, d_in, d_out),
        16 => special_block::<16>(blk, g, d_in, d_out),
        b => unreachable!("validated lane width, got {b} B"),
    }
}

/// Algorithm 1 of the paper, executed by one thread block over one tile.
///
/// The vector factor `n` and the element width come from the geometry's
/// [`KernelShape`] at run time; the const parameter `B` (= `n * W_CD`)
/// only sizes the per-lane byte arrays the simulator's warp API requires.
/// Elements are decoded to `f32` on load and encoded on store, so every
/// storage moves the same bytes an `f32`/`float2`/`float4` access would at
/// its width.
fn special_block<const B: usize>(blk: &mut BlockCtx<'_>, g: &Geom, d_in: GmBuf, d_out: GmBuf) {
    let k = g.k;
    let n = g.shape.vec_width;
    let eb = g.shape.elem_bytes();
    let enc = g.enc;
    debug_assert_eq!(B, n * eb, "lane width must match the shape");
    let threads = blk.dims.threads;
    let bx = blk.dims.block_id % g.tiles_x;
    let by = blk.dims.block_id / g.tiles_x;
    let in_row0 = by * g.tile_h;
    let in_col0 = bx * g.tile_w;

    let win_w = round_up(k + n - 1, n);
    // Per-thread register window: K rows of the sliding K x (K+n-1) patch.
    let mut win = vec![0.0f32; threads * k * win_w];
    // Register staging for the prefetched row (the row content itself).
    let rounds = g.row_len.div_ceil(threads * n);
    let mut pf = vec![0.0f32; rounds * threads * n];
    // One warp's output sums, `n` per lane.
    let mut sums = vec![0.0f32; WARP_SIZE * n];

    // Reads one absolute tile row from global memory into `pf`.
    let gm_row_to_pf = |blk: &mut BlockCtx<'_>, pf: &mut [f32], row: usize| {
        for r in 0..rounds {
            blk.each_warp(|w| {
                let mask =
                    LaneMask::from_fn(|lane| (r * threads + w.thread_id(lane)) * n < g.row_len);
                let addrs = lane_addrs_from(|lane| {
                    let p = ((r * threads + w.thread_id(lane)) * n).min(g.row_len - 1);
                    d_in.offset() + (((in_row0 + row) * g.in_pitch + in_col0 + p) * eb) as u64
                });
                let vals = w.ld_global_bytes::<B>(&addrs, mask);
                // The mask is a lane prefix and consecutive lanes own
                // consecutive `pf` runs: decode the warp in one call.
                let (p, live) = ((r * threads + w.thread_id(0)) * n, mask.count() as usize);
                debug_assert_eq!(mask, LaneMask::first(live));
                let bytes = &vals.as_flattened()[..live * B];
                enc.decode(bytes, &mut pf[p..p + live * n], false);
            });
        }
    };

    // Writes `pf` into shared-memory ring slot `slot`.
    let pf_to_smem = |blk: &mut BlockCtx<'_>, pf: &[f32], slot: usize| {
        for r in 0..rounds {
            blk.each_warp(|w| {
                let mask =
                    LaneMask::from_fn(|lane| (r * threads + w.thread_id(lane)) * n < g.row_len);
                let addrs = lane_addrs_from(|lane| {
                    let p = ((r * threads + w.thread_id(lane)) * n).min(g.row_len - 1);
                    ((slot * g.sm_pitch + p) * eb) as u64
                });
                let mut vals = [[0u8; B]; WARP_SIZE];
                let (p, live) = ((r * threads + w.thread_id(0)) * n, mask.count() as usize);
                debug_assert_eq!(mask, LaneMask::first(live));
                let bytes = &mut vals.as_flattened_mut()[..live * B];
                enc.encode(&pf[p..p + live * n], bytes, false);
                w.st_shared_bytes::<B>(&addrs, &vals, mask);
            });
        }
    };

    // Loads shared-memory row `slot` into window row `wr` of every thread.
    let smem_to_window = |blk: &mut BlockCtx<'_>, win: &mut [f32], slot: usize, wr: usize| {
        for gv in 0..win_w / n {
            blk.each_warp(|w| {
                let addrs = lane_addrs_from(|lane| {
                    ((slot * g.sm_pitch + w.thread_id(lane) * n + gv * n) * eb) as u64
                });
                let vals = w.ld_shared_bytes::<B>(&addrs, LaneMask::ALL);
                for lane in w.population().iter() {
                    let t = w.thread_id(lane);
                    let at = (t * k + wr) * win_w + gv * n;
                    enc.decode(&vals[lane], &mut win[at..at + n], false);
                }
            });
        }
    };

    // Lines 1-2: the first K rows go straight to shared memory.
    for row in 0..k {
        gm_row_to_pf(blk, &mut pf, row);
        pf_to_smem(blk, &pf, row % k);
    }
    blk.sync();
    // Line 3: rows 0..K-1 into the register windows.
    for wr in 0..k - 1 {
        smem_to_window(blk, &mut win, wr % k, wr);
    }

    // Lines 4-11: stream the remaining rows.
    let total_rows = g.tile_h + k - 1;
    for k_row in (k - 1)..total_rows {
        // Line 5: prefetch the next row while this one is convolved.
        let next = k_row + 1;
        if next < total_rows {
            gm_row_to_pf(blk, &mut pf, next);
        }
        // Line 6: the latest row from shared memory into the window.
        smem_to_window(blk, &mut win, k_row % k, k - 1);

        // Lines 7-8: every filter, n convolutions per thread, written back.
        let out_row = k_row - (k - 1);
        for f in 0..g.f {
            blk.each_warp(|w| {
                // All lanes read each tap at the same address: the constant
                // memory broadcast fast path.
                let mut taps = [0.0f32; MAX_K * MAX_K];
                if g.storage == Storage::Half2 {
                    // One broadcast read yields two binary16 taps: half the
                    // constant-memory requests of the f32 layout.
                    let wpf = (k * k).div_ceil(2);
                    for widx in 0..wpf {
                        let addr = ((f * wpf + widx) * 4) as u64;
                        let vals = w.ld_const(&lane_addrs_uniform(addr), LaneMask::ALL);
                        let (lo, hi) = unpack_f16x2(u32::from_le_bytes(vals[0].to_le_bytes()));
                        taps[2 * widx] = lo;
                        if 2 * widx + 1 < k * k {
                            taps[2 * widx + 1] = hi;
                        }
                    }
                } else {
                    for (t, tap) in taps[..k * k].iter_mut().enumerate() {
                        let addr = ((f * k * k + t) * 4) as u64;
                        *tap = w.ld_const(&lane_addrs_uniform(addr), LaneMask::ALL)[0];
                    }
                }
                // The population is a lane prefix: sum into `sums` lane by
                // lane, then encode the warp's outputs in one call.
                let pop = w.population();
                let live = pop.count() as usize;
                for lane in pop.iter() {
                    let base = w.thread_id(lane) * k * win_w;
                    for (v, out) in sums[lane * n..][..n].iter_mut().enumerate() {
                        let mut s = 0.0f32;
                        for i in 0..k {
                            for j in 0..k {
                                s += win[base + i * win_w + j + v] * taps[i * k + j];
                            }
                        }
                        *out = s;
                    }
                }
                let mut acc = [[0u8; B]; WARP_SIZE];
                let bytes = &mut acc.as_flattened_mut()[..live * B];
                enc.encode(&sums[..live * n], bytes, true);
                w.count_fma(live as u64 * (n * k * k) as u64);
                let addrs = lane_addrs_from(|lane| {
                    let t = w.thread_id(lane);
                    d_out.offset()
                        + (((f * g.out_rows + in_row0 + out_row) * g.out_pitch + in_col0 + t * n)
                            * eb) as u64
                });
                w.st_global_bytes::<B>(&addrs, &acc, LaneMask::ALL);
            });
        }

        // Lines 9-11: commit the prefetched row to the ring slot it
        // replaces, then advance the window.
        blk.sync();
        if next < total_rows {
            pf_to_smem(blk, &pf, next % k);
        }
        blk.sync();
        for t in 0..threads {
            let base = t * k * win_w;
            for wr in 0..k - 1 {
                let (dst, src) = (base + wr * win_w, base + (wr + 1) * win_w);
                win.copy_within(src..src + win_w, dst);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kconv_sim::GpuSpec;
    use kconv_tensor::{random_filters, random_maps};

    /// Runs `storage` on an `n x n` problem and verifies the executed tiles
    /// against the storage's reference oracle.
    fn check_on(
        storage: Storage,
        spec: GpuSpec,
        cfg: SpecialConfig,
        problem: ConvProblem,
        mode: SimMode,
    ) -> ConvRun {
        let input = random_maps(1, problem.height, problem.width, 11);
        let filters = random_filters(problem.filters, 1, problem.k, 13);
        let mut gpu = Gpu::new(spec);
        let run = SpecialConv {
            config: cfg,
            storage,
        }
        .run(&mut gpu, &problem, &input, &filters, mode)
        .expect("launch");
        let (input_q, filters_q, tol) = storage.oracle(&input, &filters);
        run.verify_executed(&problem, &input_q, &filters_q, tol)
            .unwrap_or_else(|e| panic!("{storage:?} {cfg}: {e}"));
        run
    }

    fn check(cfg: SpecialConfig, n: usize, f: usize, k: usize, mode: SimMode) -> ConvRun {
        let problem = ConvProblem::special(n, f, k);
        check_on(Storage::F32, GpuSpec::kepler_k40m(), cfg, problem, mode)
    }

    // Small tile configs keep Full-mode tests fast.
    fn small(vec_width: usize) -> SpecialConfig {
        SpecialConfig {
            width: 32,
            height: 4,
            vec_width,
        }
    }

    fn kernel(storage: Storage, vec_width: usize) -> SpecialConv {
        SpecialConv {
            config: small(vec_width),
            storage,
        }
    }

    #[test]
    fn matched_3x3_exact_tiles() {
        // 66x66 input, K=3 -> 64x64 output = 2x2 tiles of 32x4... exact.
        let run = check(small(2), 66, 2, 3, SimMode::Full);
        assert_eq!(run.executed_regions.len(), (64 / 32) * (64 / 4));
    }

    #[test]
    fn matched_3x3_ragged_tiles() {
        // 50x50 input -> 48x48 output; 48 = 1.5 tiles wide: clipping path.
        check(small(2), 50, 2, 3, SimMode::Full);
    }

    #[test]
    fn matched_5x5() {
        check(small(2), 40, 3, 5, SimMode::Full);
    }

    #[test]
    fn matched_7x7() {
        check(small(2), 40, 2, 7, SimMode::Full);
    }

    #[test]
    fn matched_1x1() {
        check(small(2), 32, 4, 1, SimMode::Full);
    }

    #[test]
    fn unmatched_3x3() {
        check(small(1), 40, 2, 3, SimMode::Full);
    }

    #[test]
    fn vec4_3x3() {
        check(small(4), 40, 2, 3, SimMode::Full);
    }

    #[test]
    fn single_filter() {
        check(small(2), 40, 1, 3, SimMode::Full);
    }

    #[test]
    fn narrow_storages_verify() {
        use Storage::{Half2, F16, I8};
        let (kepler, maxwell) = (GpuSpec::kepler_k40m, GpuSpec::maxwell_like);
        // (storage, spec, vec_width, image, filters, K): matched, ragged,
        // partial and scalar shapes of every narrow storage; half2 on the
        // 4-byte banks it is named for, plus an even tap count (no
        // zero-padded tail tap) and the Kepler shape.
        let cases = [
            (F16, kepler(), 4, 40, 2, 3),
            (F16, kepler(), 4, 45, 3, 5),
            (F16, kepler(), 2, 40, 2, 3),
            (F16, kepler(), 1, 40, 2, 3),
            (Half2, maxwell(), 2, 40, 2, 3),
            (Half2, maxwell(), 2, 45, 3, 5),
            (Half2, maxwell(), 2, 40, 2, 2),
            (Half2, maxwell(), 1, 40, 2, 3),
            (Half2, kepler(), 4, 40, 2, 3),
            (I8, kepler(), 8, 40, 2, 3),
            (I8, kepler(), 8, 45, 2, 5),
            (I8, kepler(), 4, 40, 2, 3),
            (I8, kepler(), 2, 40, 2, 3),
            (I8, kepler(), 1, 40, 1, 3),
        ];
        for (storage, spec, vec_width, n, f, k) in cases {
            let problem = ConvProblem::special(n, f, k);
            check_on(storage, spec, small(vec_width), problem, SimMode::Full);
        }
    }

    #[test]
    fn sampled_execution_verifies() {
        let run = check(small(2), 130, 2, 3, SimMode::Sampled(3));
        assert_eq!(run.executed_regions.len(), 3);
        assert!(run.report.stats.blocks_total > 3);
    }

    #[test]
    fn narrow_footprint_is_validated_at_its_real_size() {
        // W = 2048, K = 7: sized as f32 elements the 7-row ring buffer
        // needs ~57 KB, over the 48 KB limit; in fp16 (n = 4) it is ~28 KB
        // and in int8 (n = 8) ~14 KB, and both must be accepted.
        let spec = GpuSpec::kepler_k40m();
        let at = |vec_width| SpecialConfig {
            width: 2048,
            height: 8,
            vec_width,
        };
        assert!(at(2).smem_bytes(7, Storage::F32) > spec.max_smem_per_block);
        assert!(at(2).validate(&spec, 7, 2, Storage::F32).is_err());
        at(8).validate(&spec, 7, 2, Storage::I8).unwrap();
        let problem = ConvProblem::new(1, 22, 2054, 2, 7);
        let run = check_on(
            Storage::F16,
            spec.clone(),
            at(4),
            problem,
            SimMode::Sampled(1),
        );
        assert_eq!(run.executed_regions.len(), 1);

        // Half2 packs two taps per constant word: 13x13 filters take 85
        // words instead of 169, so twice the filters fit in 64 KB.
        let taps = |s: Storage| s.tap_bytes(13, 150) as u64;
        assert!(taps(Storage::F16) > spec.cm_bytes && taps(Storage::Half2) <= spec.cm_bytes);
        let half2 = SpecialConfig::with_vec_width(2);
        assert!(half2.validate(&spec, 13, 150, Storage::F16).is_err());
        half2.validate(&spec, 13, 150, Storage::Half2).unwrap();
    }

    #[test]
    fn rejects_multichannel() {
        let problem = ConvProblem::general(32, 2, 2, 3);
        let input = random_maps(2, 32, 32, 1);
        let filters = random_filters(2, 2, 3, 2);
        let mut gpu = Gpu::new(GpuSpec::kepler_k40m());
        for storage in [Storage::F32, Storage::F16, Storage::Half2, Storage::I8] {
            let conv = SpecialConv {
                storage,
                ..SpecialConv::default()
            };
            let err = conv.run(&mut gpu, &problem, &input, &filters, SimMode::Full);
            assert!(matches!(err, Err(ConvError::Shape(_))), "{storage:?}");
        }
    }

    #[test]
    fn rejects_strided_problems() {
        let problem = ConvProblem::special(32, 2, 3).with_stride(2);
        let input = random_maps(1, 32, 32, 1);
        let filters = random_filters(2, 1, 3, 2);
        let mut gpu = Gpu::new(GpuSpec::kepler_k40m());
        let err = SpecialConv::default().run(&mut gpu, &problem, &input, &filters, SimMode::Full);
        assert!(matches!(err, Err(ConvError::Shape(_))));
    }

    #[test]
    fn rejects_mismatched_filters() {
        let problem = ConvProblem::special(32, 2, 3);
        let input = random_maps(1, 32, 32, 1);
        let filters = random_filters(2, 1, 5, 2); // wrong K
        let mut gpu = Gpu::new(GpuSpec::kepler_k40m());
        let err = SpecialConv::default().run(&mut gpu, &problem, &input, &filters, SimMode::Full);
        assert!(matches!(err, Err(ConvError::Shape(_))));
    }

    #[test]
    fn rejects_unsupported_access_widths() {
        let problem = ConvProblem::special(40, 2, 3);
        let input = random_maps(1, 40, 40, 1);
        let filters = random_filters(2, 1, 3, 2);
        let mut gpu = Gpu::new(GpuSpec::kepler_k40m());
        // 3 x 4 B and 8 x 4 B lanes have no vector access.
        for conv in [kernel(Storage::F32, 3), kernel(Storage::F32, 8)] {
            let err = conv.run(&mut gpu, &problem, &input, &filters, SimMode::Full);
            assert!(matches!(err, Err(ConvError::Config(_))), "{}", conv.name());
        }
    }

    #[test]
    fn input_pixels_read_once() {
        // The communication-optimality claim: useful GM load bytes equal
        // the padded tile inputs — each pixel of each tile read exactly
        // once (halos excepted, counted per tile).
        let cfg = small(2);
        let run = check(cfg, 66, 2, 3, SimMode::Full);
        let tiles = (64 / 32) * (64 / 4);
        let per_tile = (cfg.width + 2) * (cfg.height + 2) * 4; // (W+K-1)(H+K-1)*4B
        assert_eq!(
            run.report.stats.gm_ld_bytes_useful,
            (tiles * per_tile) as u64
        );
    }

    #[test]
    fn fused_batch_is_correct_per_image() {
        let cfg = small(2);
        let problem = ConvProblem::special(40, 2, 3);
        let inputs: Vec<_> = (0..3).map(|i| random_maps(1, 40, 40, 500 + i)).collect();
        let filters = random_filters(2, 1, 3, 510);
        let mut gpu = Gpu::new(kconv_sim::GpuSpec::kepler_k40m());
        let run = SpecialConv::new(cfg)
            .run_fused_batch(&mut gpu, &problem, &inputs, &filters, SimMode::Full)
            .unwrap();
        assert_eq!(run.outputs.len(), 3);
        run.verify_executed(&problem, &inputs, &filters, kconv_tensor::CONV_TOL)
            .expect("fused batch mismatch");
        // Distinct inputs must give distinct outputs.
        assert_ne!(run.outputs[0].as_slice(), run.outputs[1].as_slice());
    }

    #[test]
    fn fused_batch_beats_per_image_launches_on_small_images() {
        // 8 small images: the fused grid fills all 15 SMs; per-image
        // launches leave most idle and pay 8 launch overheads.
        let cfg = SpecialConfig::kepler_best();
        let problem = ConvProblem::special(280, 8, 3);
        let inputs: Vec<_> = (0..8).map(|i| random_maps(1, 280, 280, 520 + i)).collect();
        let filters = random_filters(8, 1, 3, 530);
        let mut gpu = Gpu::new(kconv_sim::GpuSpec::kepler_k40m());
        let fused = SpecialConv::new(cfg)
            .run_fused_batch(&mut gpu, &problem, &inputs, &filters, SimMode::Sampled(4))
            .unwrap();
        let mut gpu = Gpu::new(kconv_sim::GpuSpec::kepler_k40m());
        let looped = crate::run_batch(
            &SpecialConv::new(cfg),
            &mut gpu,
            &problem,
            &inputs,
            &filters,
            SimMode::Sampled(4),
        )
        .unwrap();
        assert!(
            fused.report.seconds() < looped.total_seconds(),
            "fused {} vs looped {}",
            fused.report.seconds(),
            looped.total_seconds()
        );
    }

    #[test]
    fn fused_batch_validates_inputs() {
        let cfg = small(2);
        let problem = ConvProblem::special(40, 2, 3);
        let filters = random_filters(2, 1, 3, 1);
        let mut gpu = Gpu::new(kconv_sim::GpuSpec::kepler_k40m());
        let err =
            SpecialConv::new(cfg).run_fused_batch(&mut gpu, &problem, &[], &filters, SimMode::Full);
        assert!(matches!(err, Err(ConvError::Shape(_))));
        let bad = vec![random_maps(1, 20, 20, 1)];
        let err = SpecialConv::new(cfg).run_fused_batch(
            &mut gpu,
            &problem,
            &bad,
            &filters,
            SimMode::Full,
        );
        assert!(matches!(err, Err(ConvError::Shape(_))));
        // Fused batches are f32-only.
        let good = vec![random_maps(1, 40, 40, 1)];
        let err = kernel(Storage::F16, 4).run_fused_batch(
            &mut gpu,
            &problem,
            &good,
            &filters,
            SimMode::Full,
        );
        assert!(matches!(err, Err(ConvError::Config(_))));
    }

    #[test]
    fn matched_beats_unmatched() {
        let problem = ConvProblem::special(66, 8, 3);
        let input = random_maps(1, 66, 66, 89);
        let filters = random_filters(8, 1, 3, 90);
        let secs = |conv: SpecialConv| {
            let mut gpu = Gpu::new(GpuSpec::kepler_k40m());
            conv.run(&mut gpu, &problem, &input, &filters, SimMode::Full)
                .unwrap()
                .report
                .seconds()
        };
        for (storage, matched) in [(Storage::F32, 2), (Storage::F16, 4), (Storage::I8, 8)] {
            let (t_matched, t_unmatched) =
                (secs(kernel(storage, matched)), secs(kernel(storage, 1)));
            assert!(
                t_matched < t_unmatched,
                "{storage:?}: matched {t_matched} vs unmatched {t_unmatched}"
            );
        }
    }

    #[test]
    fn narrow_storage_divides_gm_traffic_at_f32_access_count() {
        // n=4 fp16 and n=8 int8 move 8 bytes per lane per access, exactly
        // like n=2 f32: same instruction count, while stores halve (fp16)
        // and quarter (int8) exactly.
        let problem = ConvProblem::special(66, 4, 3);
        let input = random_maps(1, 66, 66, 85);
        let filters = random_filters(4, 1, 3, 86);
        let stats = |conv: SpecialConv| {
            let mut gpu = Gpu::new(GpuSpec::kepler_k40m());
            let run = conv.run(&mut gpu, &problem, &input, &filters, SimMode::Full);
            run.unwrap().report.stats
        };
        let f32s = stats(kernel(Storage::F32, 2));
        let f16s = stats(kernel(Storage::F16, 4));
        let i8s = stats(kernel(Storage::I8, 8));
        assert_eq!(2 * f16s.gm_st_bytes_useful, f32s.gm_st_bytes_useful);
        assert_eq!(4 * i8s.gm_st_bytes_useful, f32s.gm_st_bytes_useful);
        assert_eq!(f16s.sm_requests(), f32s.sm_requests());
        assert_eq!(i8s.sm_requests(), f32s.sm_requests());
    }

    #[test]
    fn constant_memory_stays_on_broadcast_path() {
        let run = check(small(2), 40, 4, 3, SimMode::Full);
        // Every filter-tap read is warp-uniform: zero serialization cycles.
        assert!(run.report.stats.cm_requests > 0);
        assert_eq!(run.report.stats.cm_cycles, 0);
    }

    #[test]
    fn half2_filters_halve_cm_requests() {
        let problem = ConvProblem::special(40, 2, 3);
        let cm = |storage| {
            let run = check_on(
                storage,
                GpuSpec::maxwell_like(),
                small(2),
                problem,
                SimMode::Full,
            );
            // The broadcast fast path must survive the packing.
            assert_eq!(run.report.stats.cm_cycles, 0);
            run.report.stats.cm_requests
        };
        let (f32_taps, half2_taps) = (cm(Storage::F16), cm(Storage::Half2));
        // 9 taps -> 5 words per filter: ceil division, not exact halving.
        let ratio = f32_taps as f64 / half2_taps as f64;
        assert!(
            (ratio - 9.0 / 5.0).abs() < 1e-9,
            "expected 9/5 request ratio, got {ratio} ({f32_taps} vs {half2_taps})"
        );
    }

    #[test]
    fn oracles_quantize_what_the_storage_stores() {
        let input = random_maps(1, 40, 40, 89);
        let filters = random_filters(2, 1, 3, 77);
        let (maps, taps, tol) = Storage::F32.oracle(&input, &filters);
        assert_eq!(maps.as_slice(), input.as_slice());
        assert_eq!(taps.as_slice(), filters.as_slice());
        assert_eq!(tol, CONV_TOL);
        let (_, taps, _) = Storage::Half2.oracle(&input, &filters);
        for (a, b) in taps.as_slice().iter().zip(filters.as_slice()) {
            assert_eq!(*a, f16_roundtrip(*b));
        }
    }

    #[test]
    fn f16_quantization_is_visible_but_bounded() {
        let problem = ConvProblem::special(40, 1, 3);
        let input = random_maps(1, 40, 40, 89);
        let filters = random_filters(1, 1, 3, 90);
        let mut gpu = Gpu::new(GpuSpec::kepler_k40m());
        let run = kernel(Storage::F16, 4)
            .run(&mut gpu, &problem, &input, &filters, SimMode::Full)
            .unwrap();
        let exact = crate::conv_reference(&problem, &input, &filters);
        let (got, want) = (run.output.as_slice(), exact.as_slice());
        assert!(
            kconv_tensor::worst_mismatch(got, want, 0.0).is_some(),
            "fp16 must quantize something"
        );
        assert!(kconv_tensor::all_close(got, want, 8e-3));
    }

    #[test]
    fn i8_scales_are_sane() {
        let maps = random_maps(1, 8, 8, 11);
        let filters = random_filters(3, 1, 3, 13);
        let Encoding::I8 {
            scale_in,
            scale_out,
        } = Encoding::i8_for(&maps, &filters)
        else {
            unreachable!()
        };
        assert!(scale_in > 0.0 && scale_in < 1.0 / 64.0);
        assert!(scale_out >= scale_in);
        let zeros = FeatureMaps::zeros(1, 4, 4);
        assert_eq!(
            Encoding::i8_for(&zeros, &filters),
            Encoding::I8 {
                scale_in: 1.0 / 127.0,
                scale_out: 1.0 / 127.0
            }
        );
    }

    #[test]
    fn names_reflect_storage_and_matching() {
        let names = [
            (kernel(Storage::F32, 2), "special (matched, n=2)"),
            (kernel(Storage::F32, 1), "special (unmatched, n=1)"),
            (kernel(Storage::F16, 4), "special fp16 (matched, n=4)"),
            (kernel(Storage::F16, 2), "special fp16 (partial, n=2)"),
            (kernel(Storage::F16, 1), "special fp16 (unmatched, n=1)"),
            (kernel(Storage::Half2, 2), "special half2 (partial, n=2)"),
            (kernel(Storage::I8, 8), "special int8 (matched, n=8)"),
            (kernel(Storage::I8, 1), "special int8 (unmatched, n=1)"),
        ];
        for (conv, name) in names {
            assert_eq!(conv.name(), name);
        }
    }

    #[test]
    fn for_shape_maps_each_dtype_to_its_storage() {
        for (dtype, storage) in [
            (DataType::F32, Storage::F32),
            (DataType::F16, Storage::Half2),
            (DataType::I8, Storage::I8),
        ] {
            let conv = SpecialConv::for_shape(KernelShape {
                dtype,
                vec_width: 2,
            });
            assert_eq!(conv.storage, storage);
            assert_eq!(conv.config, SpecialConfig::with_vec_width(2));
            assert_eq!(storage.dtype(), dtype);
        }
    }
}
