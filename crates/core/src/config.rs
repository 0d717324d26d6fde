//! Kernel configurations for the special-case and general-case convolution
//! kernels, including the paper's Table 1 presets.

use kconv_sim::GpuSpec;

use crate::special::Storage;

/// Rounds `v` up to a multiple of `to`.
pub(crate) fn round_up(v: usize, to: usize) -> usize {
    v.div_ceil(to) * to
}

/// Configuration of the special-case (`C = 1`) kernel (paper section 3).
///
/// An image tile of `width x height` **output** pixels is handled by one
/// thread block of `width / vec_width` threads; `vec_width` is the paper's
/// `n = W_SMB / W_CD` (2 for `float` on Kepler; 1 gives the *unmatched*
/// ablation kernel of Fig. 7b).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpecialConfig {
    /// Output pixels per tile row (`W` in the paper; best found: 256).
    pub width: usize,
    /// Output rows per tile (`H` in the paper; best found: 8).
    pub height: usize,
    /// Pixels per thread per access (`n`).
    pub vec_width: usize,
}

impl SpecialConfig {
    /// The paper's design-space-exploration winner for the K40m:
    /// `W = 256`, `H = 8`, matched accesses (`n = 2`).
    pub fn kepler_best() -> Self {
        SpecialConfig {
            width: 256,
            height: 8,
            vec_width: 2,
        }
    }

    /// The unmatched ablation kernel of Fig. 7b: identical tiling but
    /// scalar (`float`) accesses.
    pub fn kepler_unmatched() -> Self {
        SpecialConfig {
            vec_width: 1,
            ..SpecialConfig::kepler_best()
        }
    }

    /// The paper's tile with an explicit vector factor — the generator's
    /// building block for forced-`n` ablations.
    pub fn with_vec_width(n: usize) -> Self {
        SpecialConfig {
            vec_width: n,
            ..SpecialConfig::kepler_best()
        }
    }

    /// The matched configuration for `f32` on `spec`: the paper's best tile
    /// with `n` derived from eq. 1 in reverse
    /// ([`KernelShape::derive_n`](crate::KernelShape::derive_n)), so the
    /// same tiling self-adapts to 8-byte-bank Kepler (`n = 2`) and
    /// 4-byte-bank Fermi/Maxwell (`n = 1`).
    pub fn matched_for(spec: &GpuSpec) -> Self {
        Self::with_vec_width(crate::KernelShape::derive_n(spec, crate::DataType::F32))
    }

    /// Threads per block (`W / n`).
    pub fn threads(&self) -> usize {
        self.width / self.vec_width
    }

    /// Shared-memory row pitch in elements for filter size `k`: at
    /// least the `W + K - 1` tile row, extended so every aligned
    /// `vec_width`-wide window load stays in bounds, and aligned to
    /// `vec_width`.
    pub fn smem_pitch(&self, k: usize) -> usize {
        let n = self.vec_width;
        let window = round_up(k + n - 1, n);
        round_up((self.width + k - 1).max(self.width - n + window), n)
    }

    /// Shared-memory bytes per block for filter size `k` with `storage`
    /// elements: a `K`-row ring buffer of padded rows. The launch reserves
    /// exactly this and [`validate`](Self::validate) checks it.
    pub fn smem_bytes(&self, k: usize, storage: Storage) -> u32 {
        (k * self.smem_pitch(k) * storage.elem_bytes()) as u32
    }

    /// Per-thread register estimate: the `K x (K + n - 1)` window, `n`
    /// accumulators, the prefetch staging and ~12 for addresses.
    pub fn regs_per_thread(&self, k: usize) -> u32 {
        let n = self.vec_width;
        (k * round_up(k + n - 1, n) + 2 * n + 12) as u32
    }

    /// Validates the configuration against `spec` for filter size `k`,
    /// `filters` output maps and the given pixel/tap `storage`.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(
        &self,
        spec: &GpuSpec,
        k: usize,
        filters: usize,
        storage: Storage,
    ) -> Result<(), String> {
        if self.vec_width == 0 || self.width == 0 || self.height == 0 {
            return Err("all dimensions must be positive".into());
        }
        let lane = self.vec_width * storage.elem_bytes();
        if !matches!(lane, 1 | 2 | 4 | 8 | 16) {
            return Err(format!(
                "unsupported access width {lane} B (vec_width {} x {} B elements)",
                self.vec_width,
                storage.elem_bytes()
            ));
        }
        if k > crate::special::MAX_K {
            return Err(format!(
                "filter size {k} exceeds the special kernel's maximum {}",
                crate::special::MAX_K
            ));
        }
        if !self.width.is_multiple_of(self.vec_width) {
            return Err(format!(
                "tile width {} not divisible by vec_width {}",
                self.width, self.vec_width
            ));
        }
        let threads = self.threads();
        if threads == 0 || threads > 1024 {
            return Err(format!("{threads} threads per block is not launchable"));
        }
        let smem = self.smem_bytes(k, storage);
        if smem > spec.max_smem_per_block {
            return Err(format!(
                "{smem} B of shared memory exceeds the per-block limit"
            ));
        }
        let cm_bytes = storage.tap_bytes(k, filters) as u64;
        if cm_bytes > spec.cm_bytes {
            return Err(format!(
                "{filters} filters of size {k}x{k} ({cm_bytes} B) exceed constant memory"
            ));
        }
        Ok(())
    }
}

impl Default for SpecialConfig {
    fn default() -> Self {
        SpecialConfig::kepler_best()
    }
}

impl std::fmt::Display for SpecialConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "special W={} H={} n={}",
            self.width, self.height, self.vec_width
        )
    }
}

/// Configuration of the general-case kernel (paper section 4, Table 1).
///
/// A thread block covers `f_tb` filters and one `width x height` output
/// tile across **all** input channels, staging `c_sh` channels of image
/// tiles plus filters in shared memory; each thread computes `w_t`
/// contiguous output pixels for `f_t` filters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GeneralConfig {
    /// Output tile width (`W`).
    pub width: usize,
    /// Output tile height (`H`).
    pub height: usize,
    /// Filters per thread block (`F_TB`).
    pub f_tb: usize,
    /// Contiguous output pixels per thread (`W_T`).
    pub w_t: usize,
    /// Filters per thread (`F_T`).
    pub f_t: usize,
    /// Channels staged in shared memory per step (`C_SH`).
    pub c_sh: usize,
    /// Shared-memory access width in `f32` elements (`n`; 2 on Kepler).
    pub vec_width: usize,
}

/// Shared-memory padding (in `f32` elements) added to the transposed filter
/// tile's pitch so its strided stores are conflict-free.
pub const FLT_PAD: usize = 2;

impl GeneralConfig {
    /// Paper Table 1, 3x3 filters: `W=32 H=4 F_TB=64 W_T=16 F_T=4 C_SH=2`.
    pub fn table1_3x3() -> Self {
        GeneralConfig {
            width: 32,
            height: 4,
            f_tb: 64,
            w_t: 16,
            f_t: 4,
            c_sh: 2,
            vec_width: 2,
        }
    }

    /// Paper Table 1, 5x5 filters: `W=32 H=8 F_TB=32 W_T=8 F_T=8 C_SH=1`.
    pub fn table1_5x5() -> Self {
        GeneralConfig {
            width: 32,
            height: 8,
            f_tb: 32,
            w_t: 8,
            f_t: 8,
            c_sh: 1,
            vec_width: 2,
        }
    }

    /// Paper Table 1, 7x7 filters: `W=64 H=4 F_TB=32 W_T=8 F_T=8 C_SH=1`.
    pub fn table1_7x7() -> Self {
        GeneralConfig {
            width: 64,
            height: 4,
            f_tb: 32,
            w_t: 8,
            f_t: 8,
            c_sh: 1,
            vec_width: 2,
        }
    }

    /// The paper's best configuration for filter size `k` (Table 1);
    /// the 3x3 entry is used for other sizes as a fallback.
    pub fn table1(k: usize) -> Self {
        match k {
            5 => GeneralConfig::table1_5x5(),
            7 => GeneralConfig::table1_7x7(),
            _ => GeneralConfig::table1_3x3(),
        }
    }

    /// The Table 1 configuration for filter size `k` with the vector factor
    /// re-derived for `spec` from eq. 1 in reverse
    /// ([`KernelShape::derive_n`](crate::KernelShape::derive_n)): `n = 2`
    /// on 8-byte-bank Kepler reproduces Table 1 exactly; 4-byte-bank parts
    /// get the scalar (`n = 1`) matched layout.
    pub fn matched_for(spec: &GpuSpec, k: usize) -> Self {
        GeneralConfig {
            vec_width: crate::KernelShape::derive_n(spec, crate::DataType::F32),
            ..GeneralConfig::table1(k)
        }
    }

    /// Adapts the Table 1 configuration for filter size `k` to a problem
    /// with `channels` input channels and `filters` output maps, relaxing
    /// `C_SH` and `F_TB` until the kernel's divisibility requirements hold.
    /// Returns `None` when no adaptation validates (callers fall back to a
    /// GEMM baseline).
    ///
    /// # Examples
    ///
    /// ```
    /// use kconv_core::GeneralConfig;
    /// use kconv_sim::GpuSpec;
    /// let spec = GpuSpec::kepler_k40m();
    /// // AlexNet conv2: C = 96 is not divisible by the 3x3 preset's
    /// // C_SH = 2? It is - but C = 3 (an RGB first layer) is not.
    /// let cfg = GeneralConfig::for_problem(&spec, 3, 3, 64).unwrap();
    /// assert_eq!(cfg.c_sh, 1);
    /// ```
    pub fn for_problem(
        spec: &GpuSpec,
        k: usize,
        channels: usize,
        filters: usize,
    ) -> Option<GeneralConfig> {
        let base = GeneralConfig::table1(k);
        let c_sh = if channels.is_multiple_of(base.c_sh) {
            base.c_sh
        } else {
            1
        };
        for f_tb in [base.f_tb, 64, 32, 16, 8, 4] {
            if !filters.is_multiple_of(f_tb) {
                continue;
            }
            let mut f_t = base.f_t.min(f_tb);
            while f_t >= 2 && (f_tb % f_t != 0) {
                f_t /= 2;
            }
            let cfg = GeneralConfig {
                f_tb,
                f_t,
                c_sh,
                ..base
            };
            if cfg.validate(spec, k).is_ok()
                && filters.is_multiple_of(cfg.f_tb)
                && channels.is_multiple_of(cfg.c_sh)
            {
                return Some(cfg);
            }
        }
        None
    }

    /// Threads along the filter dimension (`T_X = F_TB / F_T`).
    pub fn threads_x(&self) -> usize {
        self.f_tb / self.f_t
    }

    /// Threads along the pixel dimension (`T_Y = W*H / W_T`).
    pub fn threads_y(&self) -> usize {
        self.width * self.height / self.w_t
    }

    /// Total threads per block.
    pub fn threads(&self) -> usize {
        self.threads_x() * self.threads_y()
    }

    /// Image-tile row pitch in `f32` elements for filter size `k` (covers
    /// aligned vector window loads, aligned to `vec_width`).
    pub fn img_pitch(&self, k: usize) -> usize {
        let n = self.vec_width;
        let window = round_up(self.w_t + k - 1, n);
        round_up((self.width + k - 1).max(self.width - self.w_t + window), n)
    }

    /// Filter-tile pitch in `f32` elements (`F_TB` plus conflict padding).
    pub fn flt_pitch(&self) -> usize {
        round_up(self.f_tb + FLT_PAD, self.vec_width)
    }

    /// Shared-memory bytes per block for filter size `k`:
    /// `C_SH` channels of image tile plus `C_SH` channels of transposed,
    /// padded filters.
    pub fn smem_bytes(&self, k: usize) -> u32 {
        let img = self.c_sh * (self.height + k - 1) * self.img_pitch(k);
        let flt = self.c_sh * k * k * self.flt_pitch();
        ((img + flt) * 4) as u32
    }

    /// Per-thread register estimate: the `F_T x W_T` accumulator block, the
    /// `W_T + K - 1` image row, `F_T` filter values and ~16 for addresses.
    pub fn regs_per_thread(&self, k: usize) -> u32 {
        (self.f_t * self.w_t + round_up(self.w_t + k - 1, self.vec_width) + self.f_t + 16) as u32
    }

    /// Validates the configuration against `spec` for filter size `k`.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self, spec: &GpuSpec, k: usize) -> Result<(), String> {
        let n = self.vec_width;
        if n == 0 || self.width == 0 || self.height == 0 {
            return Err("all dimensions must be positive".into());
        }
        if !self.f_tb.is_multiple_of(self.f_t) {
            return Err(format!(
                "F_TB {} not divisible by F_T {}",
                self.f_tb, self.f_t
            ));
        }
        if !self.width.is_multiple_of(self.w_t) {
            return Err(format!(
                "W {} not divisible by W_T {}",
                self.width, self.w_t
            ));
        }
        if !(self.width * self.height).is_multiple_of(self.w_t) {
            return Err("tile pixels not divisible by W_T".into());
        }
        if !self.w_t.is_multiple_of(n) || !self.f_t.is_multiple_of(n) {
            return Err(format!("W_T and F_T must be divisible by vec_width {n}"));
        }
        let threads = self.threads();
        if threads == 0 || threads > 1024 {
            return Err(format!("{threads} threads per block is not launchable"));
        }
        if self.smem_bytes(k) > spec.max_smem_per_block {
            return Err(format!(
                "{} B of shared memory exceeds the per-block limit",
                self.smem_bytes(k)
            ));
        }
        if u64::from(self.regs_per_thread(k)) * threads as u64 > u64::from(spec.regs_per_sm) {
            return Err("register demand exceeds the SM file".into());
        }
        Ok(())
    }
}

impl Default for GeneralConfig {
    fn default() -> Self {
        GeneralConfig::table1_3x3()
    }
}

impl std::fmt::Display for GeneralConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "general W={} H={} F_TB={} W_T={} F_T={} C_SH={} n={}",
            self.width, self.height, self.f_tb, self.w_t, self.f_t, self.c_sh, self.vec_width
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn special_presets_validate() {
        let spec = GpuSpec::kepler_k40m();
        for k in [1, 3, 5, 7] {
            SpecialConfig::kepler_best()
                .validate(&spec, k, 64, Storage::F32)
                .unwrap();
            SpecialConfig::kepler_unmatched()
                .validate(&spec, k, 64, Storage::F32)
                .unwrap();
        }
    }

    #[test]
    fn special_threads_and_pitch() {
        let c = SpecialConfig::kepler_best();
        assert_eq!(c.threads(), 128);
        // K=3, n=2: pitch = W + K - 1 (already aligned-compatible) = 258.
        assert_eq!(c.smem_pitch(3), 258);
        // K=1: window rounds to 2, pitch = W = 256.
        assert_eq!(c.smem_pitch(1), 256);
        // n=4, K=3: window 6 -> 8, pitch = 256 - 4 + 8 = 260.
        let c4 = SpecialConfig { vec_width: 4, ..c };
        assert_eq!(c4.smem_pitch(3), 260);
    }

    #[test]
    fn special_rejects_bad_configs() {
        let spec = GpuSpec::kepler_k40m();
        let mut c = SpecialConfig::kepler_best();
        c.width = 255; // not divisible by n=2
        assert!(c.validate(&spec, 3, 8, Storage::F32).is_err());
        let mut c = SpecialConfig::kepler_best();
        c.width = 4096; // 2048 threads
        assert!(c.validate(&spec, 3, 8, Storage::F32).is_err());
        // Too many filters for constant memory.
        let c = SpecialConfig::kepler_best();
        assert!(c.validate(&spec, 7, 1024, Storage::F32).is_err());
        assert!(c.validate(&spec, 7, 64, Storage::F32).is_ok());
    }

    #[test]
    fn general_presets_validate() {
        let spec = GpuSpec::kepler_k40m();
        GeneralConfig::table1_3x3().validate(&spec, 3).unwrap();
        GeneralConfig::table1_5x5().validate(&spec, 5).unwrap();
        GeneralConfig::table1_7x7().validate(&spec, 7).unwrap();
    }

    #[test]
    fn general_thread_layout_matches_paper() {
        // 3x3: T_X = 64/4 = 16, T_Y = 32*4/16 = 8 -> 128 threads.
        let c = GeneralConfig::table1_3x3();
        assert_eq!((c.threads_x(), c.threads_y(), c.threads()), (16, 8, 128));
        // 5x5: T_X = 4, T_Y = 32 -> 128 threads.
        let c = GeneralConfig::table1_5x5();
        assert_eq!((c.threads_x(), c.threads_y(), c.threads()), (4, 32, 128));
        // 7x7: T_X = 4, T_Y = 32 -> 128 threads.
        let c = GeneralConfig::table1_7x7();
        assert_eq!((c.threads_x(), c.threads_y(), c.threads()), (4, 32, 128));
    }

    #[test]
    fn table1_lookup() {
        assert_eq!(GeneralConfig::table1(5), GeneralConfig::table1_5x5());
        assert_eq!(GeneralConfig::table1(7), GeneralConfig::table1_7x7());
        assert_eq!(GeneralConfig::table1(3), GeneralConfig::table1_3x3());
        assert_eq!(GeneralConfig::table1(9), GeneralConfig::table1_3x3());
    }

    #[test]
    fn general_rejects_bad_configs() {
        let spec = GpuSpec::kepler_k40m();
        let mut c = GeneralConfig::table1_3x3();
        c.f_t = 3; // not divisible by n, and F_TB % F_T != 0
        assert!(c.validate(&spec, 3).is_err());
        let mut c = GeneralConfig::table1_3x3();
        c.w_t = 5;
        assert!(c.validate(&spec, 3).is_err());
        let mut c = GeneralConfig::table1_3x3();
        c.c_sh = 32; // smem blowup
        assert!(c.validate(&spec, 3).is_err());
    }

    #[test]
    fn flt_pitch_is_padded_and_aligned() {
        let c = GeneralConfig::table1_3x3();
        assert_eq!(c.flt_pitch(), 66);
        let c5 = GeneralConfig::table1_5x5();
        assert_eq!(c5.flt_pitch(), 34);
    }

    #[test]
    fn for_problem_adapts_divisibility() {
        let spec = GpuSpec::kepler_k40m();
        // Canonical shapes keep the preset.
        assert_eq!(
            GeneralConfig::for_problem(&spec, 3, 64, 64),
            Some(GeneralConfig::table1_3x3())
        );
        // RGB input: C_SH drops to 1.
        let cfg = GeneralConfig::for_problem(&spec, 3, 3, 64).unwrap();
        assert_eq!(cfg.c_sh, 1);
        // F = 48: F_TB relaxes to 16.
        let cfg = GeneralConfig::for_problem(&spec, 5, 64, 48).unwrap();
        assert_eq!(48 % cfg.f_tb, 0);
        cfg.validate(&spec, 5).unwrap();
        // A prime filter count cannot be tiled.
        assert_eq!(GeneralConfig::for_problem(&spec, 3, 64, 7), None);
    }

    #[test]
    fn displays() {
        assert!(SpecialConfig::kepler_best().to_string().contains("W=256"));
        assert!(GeneralConfig::table1_5x5().to_string().contains("C_SH=1"));
    }

    #[test]
    fn defaults_are_presets() {
        assert_eq!(SpecialConfig::default(), SpecialConfig::kepler_best());
        assert_eq!(GeneralConfig::default(), GeneralConfig::table1_3x3());
    }

    #[test]
    fn matched_for_derives_n_from_bank_width() {
        // On the paper's machine the derived configs ARE the hand-tuned ones.
        let kepler = GpuSpec::kepler_k40m();
        assert_eq!(
            SpecialConfig::matched_for(&kepler),
            SpecialConfig::kepler_best()
        );
        assert_eq!(
            GeneralConfig::matched_for(&kepler, 3),
            GeneralConfig::table1_3x3()
        );
        // 4-byte banks drop to the scalar matched layout; everything else
        // keeps the Table 1 tiling, and the result still validates.
        for spec in [GpuSpec::maxwell_like(), GpuSpec::fermi_m2090()] {
            let s = SpecialConfig::matched_for(&spec);
            assert_eq!(s.vec_width, 1);
            s.validate(&spec, 3, 64, Storage::F32).unwrap();
            for k in [3, 5, 7] {
                let g = GeneralConfig::matched_for(&spec, k);
                assert_eq!(g.vec_width, 1);
                g.validate(&spec, k).unwrap();
            }
        }
    }
}
