//! Ablation — the contribution of prefetch/overlap (Algorithm 1 lines 5/10,
//! Algorithm 2 lines 8-9/17-18).
//!
//! Both kernels prefetch the next tile/row into registers while the current
//! one is convolved. The simulator's counters are overlap-independent, so
//! this ablation re-evaluates the same counted execution under the three
//! overlap models — prefetched, naturally scheduled, and fully serialized —
//! to isolate how much of the performance the software pipelining buys.
//!
//! Usage: `cargo run --release -p kconv-bench --bin ablation_overlap`

use kconv_bench::print_table;
use kconv_core::{Convolution, GeneralConfig, GeneralConv, SpecialConfig, SpecialConv, Storage};
use kconv_sim::{timing, Gpu, GpuSpec, LaunchConfig, OverlapMode, Parallelism, SimMode};
use kconv_tensor::{random_filters, random_maps, ConvProblem};

fn main() {
    println!("Ablation — overlap model vs achieved GFlop/s (K = 3x3)\n");
    let spec = GpuSpec::kepler_k40m();
    let mut rows = Vec::new();

    // Special case.
    {
        let problem = ConvProblem::special(1024, 32, 3);
        let input = random_maps(1, 1024, 1024, 401);
        let filters = random_filters(32, 1, 3, 403);
        let cfg = SpecialConfig::kepler_best();
        let mut gpu = Gpu::new(spec.clone()).with_parallelism(Parallelism::env_or_auto());
        let run = SpecialConv::new(cfg)
            .run(&mut gpu, &problem, &input, &filters, SimMode::Sampled(2))
            .expect("special run");
        let blocks = run.report.stats.blocks_total as usize;
        for overlap in [
            OverlapMode::Prefetch,
            OverlapMode::Moderate,
            OverlapMode::Serial,
        ] {
            let launch = LaunchConfig::new("special", blocks, cfg.threads())
                .with_smem(cfg.smem_bytes(3, Storage::F32))
                .with_regs(cfg.regs_per_thread(3))
                .with_overlap(overlap);
            let t = timing::evaluate(&spec, &launch, &run.report.stats).expect("timing");
            rows.push(vec![
                "special N=1024 F=32".into(),
                format!("{overlap:?}"),
                format!("{:.3}", t.t_total * 1e3),
                format!("{:.0}", problem.flops() as f64 / t.t_total / 1e9),
            ]);
        }
    }

    // General case.
    {
        let problem = ConvProblem::general(130, 64, 64, 3);
        let input = random_maps(64, 130, 130, 405);
        let filters = random_filters(64, 64, 3, 407);
        let cfg = GeneralConfig::table1_3x3();
        let mut gpu = Gpu::new(spec.clone()).with_parallelism(Parallelism::env_or_auto());
        let run = GeneralConv::new(cfg)
            .run(&mut gpu, &problem, &input, &filters, SimMode::Sampled(2))
            .expect("general run");
        let blocks = run.report.stats.blocks_total as usize;
        for overlap in [
            OverlapMode::Prefetch,
            OverlapMode::Moderate,
            OverlapMode::Serial,
        ] {
            let launch = LaunchConfig::new("general", blocks, cfg.threads())
                .with_smem(cfg.smem_bytes(3))
                .with_regs(cfg.regs_per_thread(3))
                .with_overlap(overlap);
            let t = timing::evaluate(&spec, &launch, &run.report.stats).expect("timing");
            rows.push(vec![
                "general N'=128 C=64 F=64".into(),
                format!("{overlap:?}"),
                format!("{:.3}", t.t_total * 1e3),
                format!("{:.0}", problem.flops() as f64 / t.t_total / 1e9),
            ]);
        }
    }

    print_table(&["kernel", "overlap", "time (ms)", "GFlop/s"], &rows);
    println!(
        "\nPrefetch-vs-Serial is the modeled value of the register\n\
         double-buffering in Algorithms 1 and 2; the paper attributes its\n\
         F = 1 slowdown to exactly this overlap being unavailable."
    );
}
