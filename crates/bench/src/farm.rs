//! The replay farm: a corpus of KTRC captures swept over a spec grid.
//!
//! One simulated run per kernel/shape/dtype is captured as a binary KTRC
//! trace; everything after that is trace-driven. Each trace is decoded
//! **once** into [`Trace`] slabs and re-priced under every cell of a
//! Kepler-anchored [`GpuSpec`] grid (bank width × line size × read-only
//! cache size × SM count) by [`kconv_replay::sweep`], fanning the
//! trace×spec cells over a scoped thread pool. The output — per-cell
//! counters, modeled time and bandwidth-waste factors — is the paper's
//! what-if analysis at corpus scale: `BENCH_farm.json` is a small Pareto
//! surface of architectures over the paper's kernels.
//!
//! [`run`] is the single code path behind both the `farm` binary
//! (`--check` gating, one timing iteration) and the `farm` bench target
//! (more iterations for stabler wall-clock numbers). It self-checks:
//!
//! * replaying each capture under its own spec reproduces the live
//!   launch's `KernelStats` and timing bit for bit;
//! * the serial and threaded sweeps produce bit-identical cells in the
//!   same deterministic `(trace, spec, launch)` order;
//! * the decode-once path prices every cell exactly as the
//!   byte-stream path that re-decodes per spec — while decoding each
//!   trace `1` time instead of `specs.len()` times and walking each
//!   launch once for all specs;
//! * the grid needs exactly the pricing groups its axes imply (SM 2 /
//!   GM-load 4 / GM-store 1 / CM 1 / Bar 1).
//!
//! It also reports the decoded slabs' heap bytes, the share of events
//! held in the compact affine form, and the pricings per event.

use std::time::Instant;

use kconv_core::{
    Convolution, GeneralConfig, GeneralConv, GeneralConvStrided, ImplicitGemmConv, SpecialConfig,
    SpecialConv, Storage,
};
use kconv_replay::{
    pricing_groups, replay, replay_decoded, replay_decoded_specs, sweep, Space, SweepCell,
    TargetSpec,
};
use kconv_sim::mem::lanes;
use kconv_sim::{
    BankWidth, Gpu, GpuSpec, LaunchReport, Parallelism, SanitizerMode, SimMode, TraceOp,
};
use kconv_systolic::{PipelineConfig, SystolicConv};
use kconv_tensor::{random_filters, random_maps, ConvProblem};
use kconv_trace::{SharedBuffer, Trace, TraceWriter};

use crate::{fig8, Checker};

/// Input seed shared by every corpus capture.
pub const INPUT_SEED: u64 = 211;
/// Filter seed shared by every corpus capture.
pub const FILTER_SEED: u64 = 223;

/// One corpus member: a kernel and the problem it runs on.
pub struct CorpusEntry {
    /// Stable short name (keys the JSON rows).
    pub name: &'static str,
    /// The kernel under capture.
    pub conv: Box<dyn Convolution>,
    /// The layer shape it runs.
    pub problem: ConvProblem,
}

impl std::fmt::Debug for CorpusEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CorpusEntry")
            .field("name", &self.name)
            .field("problem", &self.problem)
            .finish_non_exhaustive()
    }
}

/// The farm's capture corpus: the paper's kernels across filter sizes
/// (K ∈ {3, 5, 7}), layouts (blocked vs strided outputs), algorithms
/// (direct vs implicit GEMM) and data types (f32, fp16, int8). Shapes are
/// kept small — the value of a trace corpus is breadth, not grid size.
pub fn corpus() -> Vec<CorpusEntry> {
    fn entry(name: &'static str, conv: Box<dyn Convolution>, problem: ConvProblem) -> CorpusEntry {
        CorpusEntry {
            name,
            conv,
            problem,
        }
    }
    vec![
        entry(
            "special-3x3",
            Box::new(SpecialConv::default()),
            ConvProblem::special(130, 16, 3),
        ),
        entry(
            "special-5x5",
            Box::new(SpecialConv::default()),
            ConvProblem::special(130, 16, 5),
        ),
        entry(
            "special-7x7",
            Box::new(SpecialConv::default()),
            ConvProblem::special(130, 16, 7),
        ),
        entry(
            "general-3x3",
            Box::new(GeneralConv::table1(3)),
            ConvProblem::general(34, 4, 64, 3),
        ),
        entry(
            "general-5x5",
            Box::new(GeneralConv::table1(5)),
            ConvProblem::general(36, 4, 32, 5),
        ),
        entry(
            "general-7x7",
            Box::new(GeneralConv::table1(7)),
            ConvProblem::general(38, 2, 32, 7),
        ),
        entry(
            "general-3x3-strided",
            Box::new(GeneralConvStrided::new(GeneralConfig::table1(3))),
            ConvProblem::general(34, 4, 64, 3),
        ),
        entry(
            "implicit-gemm-3x3",
            Box::new(ImplicitGemmConv::default()),
            ConvProblem::general(34, 4, 64, 3),
        ),
        entry(
            "special-3x3-fp16",
            Box::new(SpecialConv {
                config: SpecialConfig::with_vec_width(4),
                storage: Storage::F16,
            }),
            ConvProblem::special(66, 16, 3),
        ),
        entry(
            "special-3x3-int8",
            Box::new(SpecialConv {
                config: SpecialConfig::with_vec_width(8),
                storage: Storage::I8,
            }),
            ConvProblem::special(66, 16, 3),
        ),
        // The generator's (kconv-arch) outputs, appended after the
        // original ten so their captures stay byte-stable: the scalar
        // f32 variant derived for 4-byte-bank parts, and the half2
        // fp16 variant. Swept over the grid they flip roles with the
        // hard-wired Kepler entries — matched on the 4B cells, the
        // mismatch case on the 8B cells.
        entry(
            "special-3x3-n1",
            Box::new(SpecialConv::new(SpecialConfig::with_vec_width(1))),
            ConvProblem::special(130, 16, 3),
        ),
        entry(
            "special-3x3-half2",
            Box::new(SpecialConv {
                config: SpecialConfig::with_vec_width(2),
                storage: Storage::Half2,
            }),
            ConvProblem::special(66, 16, 3),
        ),
        // The systolic pipeline's captures, appended after the original
        // twelve so every earlier capture stays byte-stable: the
        // double-buffered (depth 2) schedule on the dense anchor, and
        // the same pipeline over the extended workload matrix (strided
        // and depthwise). Their v4 traces carry Bar events, so the
        // sweep also prices barrier-bound launches across the grid.
        entry(
            "systolic-3x3-d2",
            Box::new(SystolicConv::new(PipelineConfig::matched_for(
                &GpuSpec::kepler_k40m(),
            ))),
            ConvProblem::general(34, 8, 8, 3),
        ),
        entry(
            "systolic-3x3-strided",
            Box::new(SystolicConv::new(PipelineConfig::matched_for(
                &GpuSpec::kepler_k40m(),
            ))),
            ConvProblem::general(34, 8, 8, 3).with_stride(2),
        ),
        entry(
            "systolic-3x3-depthwise",
            Box::new(SystolicConv::new(PipelineConfig::matched_for(
                &GpuSpec::kepler_k40m(),
            ))),
            ConvProblem::general(34, 8, 8, 3).depthwise(),
        ),
    ]
}

/// One captured corpus member: the KTRC bytes plus the live report they
/// must replay back to.
#[derive(Debug)]
pub struct Capture {
    /// Corpus entry name.
    pub name: &'static str,
    /// The kernel's self-reported name.
    pub kernel: String,
    /// The raw KTRC byte stream.
    pub bytes: Vec<u8>,
    /// The live launch the trace was captured from.
    pub live: LaunchReport,
}

/// Runs every corpus entry once on the capture spec (Kepler K40m) with a
/// trace writer attached.
pub fn capture_corpus() -> Vec<Capture> {
    corpus()
        .into_iter()
        .map(|e| {
            let input = random_maps(
                e.problem.channels,
                e.problem.height,
                e.problem.width,
                INPUT_SEED,
            );
            // `channels_per_group` collapses to `channels` on every dense
            // entry, so the original captures' filter bytes are unchanged;
            // the depthwise entry gets its one-channel-per-group filters.
            let filters = random_filters(
                e.problem.filters,
                e.problem.channels_per_group(),
                e.problem.k,
                FILTER_SEED,
            );
            let mut gpu = Gpu::new(GpuSpec::kepler_k40m()).with_sanitizer(SanitizerMode::Off);
            let buf = SharedBuffer::new();
            gpu.set_trace_sink(Some(Box::new(TraceWriter::new(buf.clone()))));
            let run = e
                .conv
                .run(&mut gpu, &e.problem, &input, &filters, SimMode::Full)
                .unwrap_or_else(|err| panic!("corpus entry {} runs: {err}", e.name));
            gpu.set_trace_sink(None);
            Capture {
                name: e.name,
                kernel: e.conv.name(),
                bytes: buf.take(),
                live: run.report,
            }
        })
        .collect()
}

/// The farm's what-if grid: the Kepler anchor with every combination of
/// bank width (4 B vs 8 B), load-line size (64 B vs 128 B), read-only
/// cache capacity (24 KiB vs 48 KiB) and SM count (8 vs the K40m's 15) —
/// 16 specs in the deterministic nested order `SpecGrid` guarantees.
pub fn spec_grid() -> Vec<GpuSpec> {
    GpuSpec::kepler_k40m()
        .grid()
        .bank_widths(&[BankWidth::B4, BankWidth::B8])
        .line_sizes(&[64, 128])
        .ro_cache_bytes(&[24 * 1024, 48 * 1024])
        .sm_counts(&[8, 15])
        .build()
        .expect("farm grid axes are valid")
}

/// Cells priced per wall-clock second, the farm's throughput unit.
fn cells_per_s(cells: usize, seconds: f64) -> f64 {
    cells as f64 / seconds.max(1e-12)
}

/// Renders one sweep cell as a JSON object line.
fn cell_json(captures: &[Capture], specs: &[GpuSpec], cell: &SweepCell, last: bool) -> String {
    let spec = &specs[cell.spec];
    let axes = format!(
        "\"trace\": \"{}\", \"launch\": {}, \"bank_bytes\": {}, \"line_bytes\": {}, \"ro_cache_bytes\": {}, \"sm_count\": {}",
        captures[cell.trace].name,
        cell.launch,
        spec.bank_width.bytes(),
        spec.gm_transaction_bytes,
        spec.ro_cache_bytes,
        spec.sm_count,
    );
    let body = match &cell.report {
        Ok(r) => {
            let gm_useful = r.stats.gm_ld_bytes_useful + r.stats.gm_st_bytes_useful;
            let gm_bus = r.stats.gm_ld_bytes_bus + r.stats.gm_st_bytes_bus;
            let gm_waste = if gm_useful == 0 {
                0.0
            } else {
                gm_bus as f64 / gm_useful as f64
            };
            format!(
                "\"sm_cycles\": {}, \"sm_waste\": {:.6}, \"gm_transactions\": {}, \"gm_waste\": {:.6}, \"ro_hits\": {}, \"t_total_ms\": {}, \"bottleneck\": \"{}\"",
                r.sm_cycles(),
                r.sm_waste(),
                r.gm_transactions(),
                gm_waste,
                r.stats.gm_ro_hits,
                r.timing
                    .map_or("null".into(), |t| format!("{:.6}", t.t_total * 1e3)),
                r.timing.map_or("", |t| t.bottleneck()),
            )
        }
        Err(e) => format!("\"error\": \"{e}\""),
    };
    format!("    {{{axes}, {body}}}{}\n", if last { "" } else { "," })
}

/// Checks that two sweeps produced bit-identical cells in the same order.
fn sweeps_identical(a: &[SweepCell], b: &[SweepCell]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            (x.trace, x.spec, x.launch) == (y.trace, y.spec, y.launch)
                && match (&x.report, &y.report) {
                    (Ok(rx), Ok(ry)) => rx == ry,
                    _ => false,
                }
        })
}

/// Captures the corpus, sweeps it over [`spec_grid`], runs every
/// self-check, and writes `BENCH_farm.json` to the workspace root.
/// `iters` controls how many times the timed phases repeat (best-of);
/// the binary passes 1, the bench target more. Returns the tally for the
/// caller's `--check` gate.
pub fn run(iters: usize) -> Checker {
    assert!(iters >= 1, "at least one timing iteration");
    let mut c = Checker::default();

    // --- Capture: one live run per corpus entry, trace attached ---
    let captures = capture_corpus();
    let corpus_bytes: usize = captures.iter().map(|cap| cap.bytes.len()).sum();
    println!(
        "farm — {} captures, {} B of KTRC traces",
        captures.len(),
        corpus_bytes
    );
    for cap in &captures {
        println!(
            "  {:<22} {:<28} {:>9} B",
            cap.name,
            cap.kernel,
            cap.bytes.len()
        );
    }

    // --- Gate: decode-once replay under the capture spec == live ---
    println!("\n[gate] replay(capture spec) must equal the live launch, bit for bit");
    let t0 = Instant::now();
    let traces: Vec<Trace> = captures
        .iter()
        .map(|cap| Trace::decode(&cap.bytes).expect("corpus trace decodes"))
        .collect();
    let decode_s = t0.elapsed().as_secs_f64();
    let events: usize = traces.iter().map(Trace::total_events).sum();
    let affine: usize = traces
        .iter()
        .flat_map(Trace::launches)
        .map(|l| l.affine_event_count())
        .sum();
    let heap_bytes: usize = traces.iter().map(Trace::heap_bytes).sum();
    println!(
        "  decoded slabs: {heap_bytes} B for {events} events ({:.1} B/event, {:.1}% affine)",
        heap_bytes as f64 / events.max(1) as f64,
        100.0 * affine as f64 / events.max(1) as f64,
    );
    for (cap, trace) in captures.iter().zip(&traces) {
        let reports = replay_decoded(trace, &TargetSpec::Capture).expect("capture spec embedded");
        let ok = reports.len() == 1
            && reports[0].stats == cap.live.stats
            && reports[0].timing == Some(cap.live.timing);
        c.check(
            &format!("{}: replay(capture) == live", cap.name),
            ok,
            "KernelStats + timing, bit-exact",
        );
    }

    // --- Sweep: every trace × every grid spec, serial then threaded ---
    let specs = spec_grid();
    // A 1-core host degrades `env_or_auto` to one worker, which would turn
    // the serial ≡ threaded check into a tautology — so the threaded sweep
    // always runs at least two workers. Its wall time is only a scaling
    // measurement when `valid_scaling` below says so.
    let threads = Parallelism::env_or_auto().worker_threads().max(2);
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let valid_scaling = host_cores >= 2;
    let mut serial_s = f64::INFINITY;
    let mut threaded_s = f64::INFINITY;
    let mut cells = Vec::new();
    for _ in 0..iters {
        let t0 = Instant::now();
        cells = sweep(&traces, &specs, Parallelism::Serial);
        serial_s = serial_s.min(t0.elapsed().as_secs_f64());
    }
    let mut threaded = Vec::new();
    for _ in 0..iters {
        let t0 = Instant::now();
        threaded = sweep(&traces, &specs, Parallelism::Threads(threads));
        threaded_s = threaded_s.min(t0.elapsed().as_secs_f64());
    }
    println!(
        "\n[sweep] {} traces × {} specs = {} cells",
        traces.len(),
        specs.len(),
        cells.len()
    );
    println!(
        "  serial:               {serial_s:.3} s  ({:.0} cells/s)",
        cells_per_s(cells.len(), serial_s)
    );
    println!(
        "  threaded ({threads} workers):  {threaded_s:.3} s  ({:.0} cells/s)",
        cells_per_s(threaded.len(), threaded_s)
    );
    if !valid_scaling {
        println!(
            "  NOTE: only {host_cores} host core(s) — the wall-clock ratio measures \
             scheduler noise, not scaling (valid_scaling: false)"
        );
    }
    let launches: usize = traces.iter().map(|t| t.launches().len()).sum();
    c.eq_u64(
        "sweep covers every (trace, spec, launch) cell",
        cells.len() as u64,
        (launches * specs.len()) as u64,
    );
    c.check(
        "serial and threaded sweeps bit-identical",
        sweeps_identical(&cells, &threaded),
        &format!("{} cells, {threads} workers", cells.len()),
    );
    c.check(
        "every cell priced",
        cells.iter().all(|cell| cell.report.is_ok()),
        "no replay errors across the grid",
    );

    // --- Pricing groups: each event is priced once per distinct key ---
    // The grid's 16 specs hold 2 bank widths (SM), 2 line sizes × 2
    // read-only capacities (GM-load), and one store line and one
    // constant line; the SM-count axis is timing-only.
    let groups = pricing_groups(&specs);
    let mut op_events = [0u64; TraceOp::COUNT];
    for cell in cells.iter().filter(|cell| cell.spec == 0) {
        if let Ok(r) = &cell.report {
            for op in TraceOp::ALL {
                op_events[op.index()] += r.op(op).events;
            }
        }
    }
    let pricings: u64 = TraceOp::ALL
        .iter()
        .map(|&op| op_events[op.index()] * groups[Space::of(op) as usize] as u64)
        .sum();
    let pricings_per_event = pricings as f64 / events.max(1) as f64;
    let groups_line = Space::ALL
        .iter()
        .map(|&space| format!("{} {}", space.name(), groups[space as usize]))
        .collect::<Vec<_>>()
        .join(" / ");
    println!("\n[pricing] distinct pricing keys per space over the grid");
    println!("  {groups_line}");
    println!(
        "  pricings per event:   {pricings_per_event:.3}  (one per spec would be {})",
        specs.len()
    );
    c.check(
        "pricing groups per space match the grid axes",
        groups == [2, 4, 1, 1, 1],
        &groups_line,
    );
    c.eq_u64(
        "per-op event counts cover every decoded event",
        op_events.iter().sum(),
        events as u64,
    );

    // --- Decode-once amortization: byte path re-decodes per spec ---
    let mut byte_s = f64::INFINITY;
    let mut decoded_s = f64::INFINITY;
    let mut byte_reports = Vec::new();
    let mut decoded_reports = Vec::new();
    for _ in 0..iters {
        let t0 = Instant::now();
        byte_reports = captures
            .iter()
            .flat_map(|cap| {
                specs.iter().map(|s| {
                    replay(&cap.bytes, &TargetSpec::Spec(s.clone())).expect("byte path replays")
                })
            })
            .collect();
        byte_s = byte_s.min(t0.elapsed().as_secs_f64());

        let t0 = Instant::now();
        decoded_reports = captures
            .iter()
            .flat_map(|cap| {
                let trace = Trace::decode(&cap.bytes).expect("corpus trace decodes");
                replay_decoded_specs(&trace, &specs)
            })
            .collect();
        decoded_s = decoded_s.min(t0.elapsed().as_secs_f64());
    }
    let speedup = byte_s / decoded_s;
    println!(
        "\n[decode-once] {} replays across the grid, best of {iters}",
        byte_reports.len()
    );
    println!(
        "  decode per spec:      {byte_s:.3} s  ({:.0} replays/s)",
        cells_per_s(byte_reports.len(), byte_s)
    );
    println!(
        "  decode once:          {decoded_s:.3} s  ({:.0} replays/s)",
        cells_per_s(decoded_reports.len(), decoded_s)
    );
    println!(
        "  speedup:              {speedup:.2}x (one-time decode of the corpus: {decode_s:.3} s)"
    );
    c.check(
        "decode-once path prices exactly as the byte path",
        byte_reports == decoded_reports,
        &format!("{} replays compared", byte_reports.len()),
    );

    // --- Lane backends: the same serial sweep under each engine ---
    // The engine's bit-exactness contract makes in-process backend
    // switching safe; the assert restates it per sweep (the full gate is
    // the CI lanes matrix plus the sim crate's differential suite).
    let lane_auto = lanes::active();
    let mut lane_sweeps: Vec<(lanes::Backend, f64)> = Vec::new();
    println!(
        "\n[lanes] serial sweep per lane backend (dispatched: {})",
        lane_auto.name()
    );
    for backend in lanes::Backend::available() {
        lanes::force(backend);
        let mut lane_s = f64::INFINITY;
        for _ in 0..iters {
            let t0 = Instant::now();
            let lane_cells = sweep(&traces, &specs, Parallelism::Serial);
            lane_s = lane_s.min(t0.elapsed().as_secs_f64());
            assert!(
                sweeps_identical(&cells, &lane_cells),
                "lane backend {backend:?} diverged from the dispatched sweep"
            );
        }
        println!(
            "  {:<7} {lane_s:.3} s  ({:.0} cells/s)",
            backend.name(),
            cells_per_s(cells.len(), lane_s)
        );
        lane_sweeps.push((backend, lane_s));
    }
    lanes::force(lane_auto);

    // --- JSON artifact ---
    let mut corpus_json = String::new();
    for (i, cap) in captures.iter().enumerate() {
        corpus_json.push_str(&format!(
            "    {{\"name\": \"{}\", \"kernel\": \"{}\", \"trace_bytes\": {}, \"launches\": {}}}{}\n",
            cap.name,
            cap.kernel,
            cap.bytes.len(),
            traces[i].launches().len(),
            if i + 1 < captures.len() { "," } else { "" },
        ));
    }
    let mut cells_json = String::new();
    for (i, cell) in cells.iter().enumerate() {
        cells_json.push_str(&cell_json(&captures, &specs, cell, i + 1 == cells.len()));
    }
    let lane_json = lane_sweeps
        .iter()
        .map(|(b, s)| format!("\"{}\": {s:.6}", b.name()))
        .collect::<Vec<_>>()
        .join(", ");
    let groups_json = Space::ALL
        .iter()
        .map(|&space| format!("\"{}\": {}", space.name(), groups[space as usize]))
        .collect::<Vec<_>>()
        .join(", ");
    let json = format!(
        "{{\n  \"bench\": \"replay_farm\",\n  \"corpus_trace_bytes\": {corpus_bytes},\n  \"grid_specs\": {},\n  \"corpus\": [\n{corpus_json}  ],\n  \"cells\": [\n{cells_json}  ],\n  \"sweep\": {{\"serial_seconds\": {serial_s:.6}, \"threaded_seconds\": {threaded_s:.6}, \"threads\": {threads}, \"bit_identical\": {}}},\n  \"decode_once\": {{\"decode_per_spec_seconds\": {byte_s:.6}, \"decode_once_seconds\": {decoded_s:.6}, \"speedup\": {speedup:.4}, \"corpus_decode_seconds\": {decode_s:.6}, \"events\": {events}, \"affine_events\": {affine}, \"heap_bytes\": {heap_bytes}}},\n  \"pricing\": {{\"groups\": {{{groups_json}}}, \"pricings_per_event\": {pricings_per_event:.4}, \"specs\": {}}},\n  \"lane_backend\": \"{}\",\n  \"lane_sweep_serial_seconds\": {{{lane_json}}},\n  \"host_cores\": {host_cores},\n  \"valid_scaling\": {valid_scaling},\n  \"iters\": {iters},\n  \"checks\": {},\n  \"failures\": {}\n}}\n",
        specs.len(),
        sweeps_identical(&cells, &threaded),
        specs.len(),
        lane_auto.name(),
        c.checks,
        c.failures,
    );
    let path = fig8::workspace_file("BENCH_farm.json");
    if let Err(e) = std::fs::write(&path, &json) {
        c.check("BENCH_farm.json written", false, &format!("{path}: {e}"));
    } else {
        println!("\nwrote {path}");
    }

    c.summary();
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use kconv_replay::{replay_launch, replay_launch_specs};
    use kconv_sim::{TraceLaunch, TraceSink};
    use kconv_trace::decoded::affine_form;
    use kconv_trace::read_launches;

    /// Writes a decoded trace back out through the KTRC writer.
    fn reencode(trace: &Trace) -> Vec<u8> {
        let buf = SharedBuffer::new();
        let mut w = TraceWriter::new(buf.clone());
        for launch in trace.launches() {
            let h = &launch.header;
            let spec = h.spec.clone().expect("v4 captures embed their spec");
            w.launch_begin(&TraceLaunch {
                kernel: &h.kernel,
                grid_blocks: h.grid_blocks as usize,
                executed_blocks: h.executed_blocks as usize,
                threads_per_block: h.threads_per_block as usize,
                smem_bytes: h.smem_bytes as u32,
                regs_per_thread: h.regs_per_thread as u32,
                overlap: h.overlap,
                spec: &spec,
            });
            for block in launch.blocks() {
                w.block_events(block.block_id as usize, &block.to_events());
            }
            w.launch_end(launch.end.stats.as_ref().expect("completed launch"));
        }
        let (_, err) = w.into_inner();
        assert!(err.is_none());
        buf.take()
    }

    /// Pins the slab decoder and the batched pricer on the real corpus.
    /// On every capture `Trace::decode` yields the events `read_launches`
    /// materializes, which the writer turns back into the captured bytes,
    /// and keeps each event in the form `affine_form` picks for it;
    /// every special-kernel capture decodes fully affine and at least 90%
    /// of all events do; the corpus totals 1,091,512 events in 73,721,440
    /// slab bytes; and pricing each launch under several grid specs in one
    /// walk equals pricing it once per spec.
    #[test]
    fn corpus_decodes_mostly_affine_and_prices_batched_as_single() {
        // The grid's two corner cells differ on every axis.
        let grid = spec_grid();
        let specs = [grid[0].clone(), grid[grid.len() - 1].clone()];
        let (mut events, mut affine, mut heap) = (0, 0, 0);
        for cap in capture_corpus() {
            let trace = Trace::decode(&cap.bytes).expect("corpus trace decodes");
            let streamed = read_launches(&cap.bytes).expect("corpus trace reads");
            assert_eq!(trace.launches().len(), streamed.len(), "{}", cap.name);
            // Both readers share one parser; the writer is the independent
            // check that it read every address right.
            assert!(reencode(&trace) == cap.bytes, "{}: re-encoding", cap.name);
            heap += trace.heap_bytes();
            for (launch, want) in trace.launches().iter().zip(&streamed) {
                assert_eq!(launch.header, want.header, "{}", cap.name);
                assert_eq!(launch.end, want.end, "{}", cap.name);
                assert_eq!(launch.block_count(), want.blocks.len(), "{}", cap.name);
                for (block, (id, evs)) in launch.blocks().zip(&want.blocks) {
                    assert_eq!(block.block_id, *id, "{}", cap.name);
                    assert!(block.to_events() == *evs, "{}: block {id}", cap.name);
                }
                let oracle = want
                    .blocks
                    .iter()
                    .flat_map(|(_, evs)| evs)
                    .filter(|ev| affine_form(ev.mask, &ev.addrs).is_some())
                    .count();
                assert_eq!(launch.affine_event_count(), oracle, "{}", cap.name);
                events += launch.event_count();
                affine += launch.affine_event_count();
                if cap.name.starts_with("special") {
                    assert_eq!(
                        launch.affine_event_count(),
                        launch.event_count(),
                        "{}",
                        cap.name
                    );
                }
                let batched = replay_launch_specs(launch, &specs);
                for (got, spec) in batched.iter().zip(&specs) {
                    let single = replay_launch(launch, &TargetSpec::Spec(spec.clone()))
                        .expect("explicit spec");
                    assert!(got == &single, "{} under {spec:?}", cap.name);
                }
            }
        }
        assert_eq!((events, heap), (1_091_512, 73_721_440));
        assert!(
            affine * 10 >= events * 9,
            "{affine} of {events} events affine"
        );
    }

    #[test]
    fn grid_is_sixteen_kepler_anchored_specs() {
        let specs = spec_grid();
        assert_eq!(specs.len(), 16);
        assert!(specs.iter().all(|s| s.name == "Kepler K40m"));
        // Every axis actually varies across the grid.
        for f in [
            |s: &GpuSpec| s.bank_width.bytes(),
            |s: &GpuSpec| s.gm_transaction_bytes,
            |s: &GpuSpec| s.ro_cache_bytes,
            |s: &GpuSpec| s.sm_count as u64,
        ] {
            let first = f(&specs[0]);
            assert!(specs.iter().any(|s| f(s) != first));
        }
    }

    #[test]
    fn corpus_covers_kernels_shapes_and_dtypes() {
        let entries = corpus();
        assert!(entries.len() >= 15);
        let names: Vec<_> = entries.iter().map(|e| e.name).collect();
        for required in [
            "special-5x5",
            "special-7x7",
            "general-3x3-strided",
            "implicit-gemm-3x3",
            "special-3x3-fp16",
            "special-3x3-int8",
            "special-3x3-n1",
            "special-3x3-half2",
            "systolic-3x3-d2",
            "systolic-3x3-strided",
            "systolic-3x3-depthwise",
        ] {
            assert!(names.contains(&required), "missing {required}");
        }
        // The corpus is append-only: the systolic entries land after the
        // original twelve, so every earlier capture stays byte-stable
        // across releases.
        for (i, required) in [
            "special-3x3",
            "special-5x5",
            "special-7x7",
            "general-3x3",
            "general-5x5",
            "general-7x7",
            "general-3x3-strided",
            "implicit-gemm-3x3",
            "special-3x3-fp16",
            "special-3x3-int8",
            "special-3x3-n1",
            "special-3x3-half2",
        ]
        .iter()
        .enumerate()
        {
            assert_eq!(names[i], *required, "corpus prefix reordered at {i}");
        }
        // The appended entries exercise the extended workload matrix.
        assert!(entries.iter().any(|e| e.problem.stride > 1));
        assert!(entries.iter().any(|e| e.problem.depthwise));
        // Names are unique: they key the JSON rows.
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len());
    }
}
