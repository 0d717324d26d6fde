//! Cross-architecture ablation — the mismatch penalty exists exactly where
//! the model says it does.
//!
//! The paper's model predicts the unmatched kernel loses only when
//! `n = W_SMB / W_CD > 1`. On Fermi-class 4-byte banks, `float` is already
//! matched, so the scalar kernel should cost nothing relative to the
//! vectorized one; on Kepler it should lose. This harness runs the special
//! kernel's matched/unmatched pair on three architectures and reports the
//! penalty, plus the fp16 pair, where *every* architecture shows a
//! mismatch.
//!
//! Usage: `cargo run --release -p kconv-bench --bin ablation_arch`

use kconv_bench::print_table;
use kconv_core::{Convolution, SpecialConfig, SpecialConv, Storage};
use kconv_sim::{Gpu, GpuSpec, Parallelism, SimMode};
use kconv_tensor::{random_filters, random_maps, ConvProblem};

fn seconds(conv: &dyn Convolution, spec: &GpuSpec, problem: &ConvProblem) -> f64 {
    let input = random_maps(1, problem.height, problem.width, 501);
    let filters = random_filters(problem.filters, 1, problem.k, 503);
    let mut gpu = Gpu::new(spec.clone()).with_parallelism(Parallelism::env_or_auto());
    conv.run(&mut gpu, problem, &input, &filters, SimMode::Sampled(2))
        .unwrap_or_else(|e| panic!("{} on {}: {e}", conv.name(), spec.name))
        .report
        .seconds()
}

fn main() {
    println!("Cross-architecture ablation — unmatched-kernel penalty (special case)\n");
    let problem = ConvProblem::special(1024, 8, 3);
    let specs = [
        GpuSpec::kepler_k40m(),
        GpuSpec::fermi_m2090(),
        GpuSpec::maxwell_like(),
    ];

    let mut rows = Vec::new();
    for spec in &specs {
        for storage in [Storage::F32, Storage::F16, Storage::I8] {
            let n = spec.mismatch_factor(storage.elem_bytes() as u64);
            let at = |vec_width| SpecialConv {
                config: SpecialConfig::with_vec_width(vec_width),
                storage,
            };
            let matched = seconds(&at(n as usize), spec, &problem);
            let unmatched = seconds(&at(1), spec, &problem);
            rows.push(vec![
                spec.name.to_string(),
                storage.dtype().name().into(),
                n.to_string(),
                format!("{:.3}", matched * 1e3),
                format!("{:.3}", unmatched * 1e3),
                format!("{:.1}%", 100.0 * (unmatched / matched - 1.0)),
            ]);
        }
    }
    print_table(
        &[
            "architecture",
            "type",
            "n",
            "matched (ms)",
            "scalar (ms)",
            "scalar penalty",
        ],
        &rows,
    );
    println!(
        "\nThe penalty tracks n: where n = 1 the scalar kernel is already\n\
         matched (no penalty beyond instruction-count noise); the paper's\n\
         optimization is Kepler-specific for f32 but universal for fp16 —\n\
         exactly its section-6 argument."
    );
}
