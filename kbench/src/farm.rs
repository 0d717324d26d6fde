//! `replay-farm`: decode the KTRC corpus and sweep it over the spec grid.
//!
//! Set-up captures the 15-entry farm corpus (`kconv_bench::farm::corpus`)
//! on seeded inputs through a `TraceWriter`. One iteration decodes every
//! capture once (`Trace::decode`) and re-prices it serially under all 16
//! specs of `kconv_bench::farm::spec_grid` (`kconv_replay::sweep`, 240
//! cells). No kernel executes during an iteration.

use std::time::Instant;

use kconv_bench::farm::{corpus, spec_grid};
use kconv_replay::{replay_decoded, sweep, ReplayReport, SweepCell, TargetSpec, Trace};
use kconv_sim::mem::lanes;
use kconv_sim::{
    Gpu, GpuSpec, KernelStats, LaunchReport, Parallelism, SanitizerMode, SimMode, Timing, WARP_SIZE,
};
use kconv_tensor::{random_filters, random_maps};
use kconv_trace::{EventHead, SharedBuffer, TraceWriter};

use crate::report::Gate;
use crate::spans::Tracer;
use crate::stats::{median, tail_percentile};
use crate::{held_out, Ctx, Layers, Outcome, SETUP_ID};

/// One corpus member captured live.
struct Capture {
    name: &'static str,
    bytes: Vec<u8>,
    live: LaunchReport,
}

/// Runs every corpus entry once on the K40m with a trace writer attached.
fn capture(seed: u64, gate: &mut Gate, t: &mut Tracer) -> Vec<Capture> {
    corpus()
        .into_iter()
        .enumerate()
        .filter_map(|(i, e)| {
            let p = &e.problem;
            let input = random_maps(p.channels, p.height, p.width, seed.wrapping_add(i as u64));
            let filters = random_filters(
                p.filters,
                p.channels_per_group(),
                p.k,
                seed.wrapping_add(1000 + i as u64),
            );
            let mut gpu = Gpu::new(GpuSpec::kepler_k40m())
                .with_sanitizer(SanitizerMode::Off)
                .with_parallelism(Parallelism::Serial);
            let buf = SharedBuffer::new();
            gpu.set_trace_sink(Some(Box::new(TraceWriter::new(buf.clone()))));
            let run = t.span("core.run", SETUP_ID, |_| {
                e.conv.run(&mut gpu, p, &input, &filters, SimMode::Full)
            });
            gpu.set_trace_sink(None);
            let ok = run.is_ok();
            gate.op(ok, || {
                format!("capture {}: {:?}", e.name, run.as_ref().err())
            });
            run.ok().map(|r| Capture {
                name: e.name,
                bytes: buf.take(),
                live: r.report,
            })
        })
        .collect()
}

/// Decoded slab bytes: one event head plus 32 lane addresses per event.
fn decoded_bytes(traces: &[Trace]) -> usize {
    let per_event = std::mem::size_of::<EventHead>() + WARP_SIZE * std::mem::size_of::<u64>();
    traces.iter().map(|t| t.total_events() * per_event).sum()
}

fn decode_all(caps: &[Capture], gate: &mut Gate, t: &mut Tracer, id: u64) -> Vec<Trace> {
    t.span("trace.decode", id, |_| {
        caps.iter()
            .filter_map(|c| match Trace::decode(&c.bytes) {
                Ok(tr) => Some(tr),
                Err(e) => {
                    gate.op(false, || format!("decode {}: {e}", c.name));
                    None
                }
            })
            .collect()
    })
}

/// Gates one sweep: every cell priced, each capture's own-spec cell equal
/// to its live launch, and every cell equal to the golden sweep's.
fn check_sweep(
    caps: &[Capture],
    traces: &[Trace],
    cells: &[SweepCell],
    golden: Option<&[SweepCell]>,
    gate: &mut Gate,
) {
    for (i, cell) in cells.iter().enumerate() {
        let same = golden.is_none_or(|g| {
            g.get(i).is_some_and(|g| {
                (g.trace, g.spec, g.launch) == (cell.trace, cell.spec, cell.launch)
                    && matches!((&g.report, &cell.report), (Ok(a), Ok(b)) if a == b)
            })
        });
        gate.op(cell.report.is_ok() && same, || {
            format!(
                "cell {i} errored or drifted: {:?}",
                cell.report.as_ref().err()
            )
        });
    }
    for (cap, trace) in caps.iter().zip(traces) {
        let own = replay_decoded(trace, &TargetSpec::Capture);
        let ok = own.as_ref().is_ok_and(|r| {
            r.len() == 1 && r[0].stats == cap.live.stats && r[0].timing == Some(cap.live.timing)
        });
        gate.op(ok, || format!("{}: replay(capture spec) != live", cap.name));
    }
}

fn cell_ms(cells: &[SweepCell]) -> Vec<f64> {
    cells
        .iter()
        .filter_map(|c| c.report.as_ref().ok())
        .filter_map(|r: &ReplayReport| r.timing.map(|t| t.t_total * 1e3))
        .collect()
}

/// What set-up leaves for the timed iterations.
struct Setup {
    caps: Vec<Capture>,
    specs: Vec<GpuSpec>,
    golden: Vec<SweepCell>,
}

fn setup(seed: u64, gate: &mut Gate, t: &mut Tracer) -> Setup {
    let caps = capture(seed, gate, t);
    let specs = spec_grid();
    // Warm-up: one decode and sweep, kept as the golden cells.
    let traces = decode_all(&caps, gate, t, SETUP_ID);
    let golden = sweep(&traces, &specs, Parallelism::Serial);
    check_sweep(&caps, &traces, &golden, None, gate);
    Setup {
        caps,
        specs,
        golden,
    }
}

/// One iteration: decode the corpus, sweep it serially, check the cells.
fn iterate(s: &Setup, gate: &mut Gate, t: &mut Tracer, id: u64) -> Vec<Trace> {
    let traces = decode_all(&s.caps, gate, t, id);
    let cells = t.span("replay.sweep", id, |_| {
        sweep(&traces, &s.specs, Parallelism::Serial)
    });
    check_sweep(&s.caps, &traces, &cells, Some(&s.golden), gate);
    traces
}

/// Runs the workload; see the module docs.
pub fn run(ctx: &Ctx) -> Outcome {
    let mut gate = Gate::default();
    if !ctx.traced {
        let mut off = Tracer::new(false);
        let (s, setup_times, walls) = crate::rounds(
            ctx.seconds,
            &mut gate,
            |g| setup(ctx.seed, g, &mut Tracer::new(false)),
            |s, g, i| {
                iterate(s, g, &mut off, i);
            },
        );
        let ms = cell_ms(&s.golden);
        let total: f64 = ms.iter().sum();
        let metrics = crate::end_to_end(
            &setup_times,
            &walls,
            crate::Modeled {
                modeled_ms: total,
                // Each cell is one launch priced under one spec.
                p50_ms: median(&ms),
                p95_ms: tail_percentile(&ms, 95.0).unwrap_or(0.0),
                // Cells per modeled second, launches run back to back, each
                // verified.
                max_rate_rps: ms.len() as f64 * 1e3 / total,
                goodput_rps: ms.len() as f64 * 1e3 / total,
            },
        );
        return Outcome {
            gate,
            metrics,
            tracer: off,
        };
    }

    let mut on = Tracer::new(true);
    let mut off = Tracer::new(false);
    let s = setup(ctx.seed, &mut gate, &mut on);
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let mut per_iter = Vec::new();
    let mut traces = Vec::new();
    let mut id = 0;
    let t0 = Instant::now();
    while plain.len() < 2 || t0.elapsed().as_secs_f64() < ctx.seconds {
        let a = Instant::now();
        iterate(&s, &mut gate, &mut off, id);
        plain.push(a.elapsed().as_secs_f64());
        let a = Instant::now();
        traces = iterate(&s, &mut gate, &mut on, id);
        traced.push(a.elapsed().as_secs_f64());
        let mut l = Layers::default();
        let sweep_s = on.self_seconds(id, "replay.sweep");
        l.add("trace.decode_s", on.self_seconds(id, "trace.decode"));
        l.add("replay.sweep_s", sweep_s);
        let events: usize = traces.iter().map(Trace::total_events).sum();
        l.add(
            "replay.ns_per_event",
            sweep_s * 1e9 / (events * s.specs.len()).max(1) as f64,
        );
        per_iter.push(l);
        id += 1;
    }

    let mut layers = Layers::median(&per_iter);
    layers.add("bench.wall_s", median(&plain));
    layers.add("bench.trace_overhead", median(&traced) / median(&plain));
    let capture_s = on.self_seconds(SETUP_ID, "core.run");
    layers.add("core.run_s", capture_s);
    let stats: Vec<&KernelStats> = s.caps.iter().map(|c| &c.live.stats).collect();
    let timings: Vec<&Timing> = s.caps.iter().map(|c| &c.live.timing).collect();
    crate::sim_layers(&mut layers, &stats, &timings);
    layers.add(
        "sim.ns_per_mem_request",
        capture_s * 1e9 / crate::mem_requests(&stats).max(1) as f64,
    );
    layers.add(
        "trace.bytes",
        s.caps.iter().map(|c| c.bytes.len()).sum::<usize>() as f64,
    );
    layers.add(
        "trace.events",
        traces.iter().map(Trace::total_events).sum::<usize>() as f64,
    );
    layers.add("trace.decoded_bytes", decoded_bytes(&traces) as f64);
    layers.add(
        "replay.errors",
        s.golden.iter().filter(|c| c.report.is_err()).count() as f64,
    );

    // Lane-backend A/B and a 2-worker sweep; cells must not move.
    let same = |cells: &[SweepCell]| {
        cells.len() == s.golden.len()
            && cells
                .iter()
                .zip(&s.golden)
                .all(|(a, b)| matches!((&a.report, &b.report), (Ok(x), Ok(y)) if x == y))
    };
    let auto = lanes::active();
    for backend in lanes::Backend::available() {
        lanes::force(backend);
        let a = Instant::now();
        let cells = sweep(&traces, &s.specs, Parallelism::Serial);
        layers.add(
            &format!("replay.sweep_s.lanes.{}", backend.name()),
            a.elapsed().as_secs_f64(),
        );
        gate.op(same(&cells), || {
            format!("lane backend {} changed the sweep", backend.name())
        });
    }
    lanes::force(auto);
    let a = Instant::now();
    let cells = sweep(&traces, &s.specs, Parallelism::Threads(2));
    layers.add("replay.sweep_s.threads2", a.elapsed().as_secs_f64());
    gate.op(same(&cells), || "2-worker sweep differs from serial".into());

    // Held-out seed: the corpus's counters do not depend on the data.
    let other = capture(held_out(ctx.seed), &mut gate, &mut off);
    for (a, b) in other.iter().zip(&s.caps) {
        gate.op(
            a.live.stats == b.live.stats && a.live.timing == b.live.timing,
            || format!("{}: counters changed on the held-out seed", a.name),
        );
    }
    Outcome {
        gate,
        metrics: layers.into_metrics(),
        tracer: on,
    }
}
