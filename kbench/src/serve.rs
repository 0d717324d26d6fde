//! `serve-mixed`: open-loop Poisson traffic through `ServeEngine::run`.
//!
//! Requests arrive at three fixed rates (`light`, `knee`, `overload`) on
//! the modeled clock, chaos off. The mix covers every `Engine::Auto`
//! route: the special kernel (C = 1) in f32, f16 and i8, the general
//! kernel at K = 3, 5 and 7, a strided dense layer (implicit GEMM), and a
//! dilated and a depthwise layer (the systolic pipeline). Latency runs
//! from each request's scheduled arrival. Hundreds of small launches make
//! per-launch fixed costs, plan caching, batching and queueing dominate.

use std::time::Instant;

use kconv_apps::{Engine, PlanCache};
use kconv_core::{conv_reference, DataType};
use kconv_serve::{
    ConvRequest, DType, Outcome as Served, ServeConfig, ServeEngine, ServeError, ServeMetrics,
};
use kconv_sim::{Gpu, GpuSpec, KernelStats, Parallelism, SimMode, Timing};
use kconv_tensor::rng::StdRng;
use kconv_tensor::{
    random_filters, random_maps, worst_mismatch, ConvProblem, FeatureMaps, CONV_TOL,
};

use crate::report::Gate;
use crate::spans::Tracer;
use crate::stats::{
    backlog_grows, bisect_max_rate, goodput, median, poisson_arrivals, tail_percentile, RateLevel,
};
use crate::{Ctx, Layers, Outcome, SETUP_ID};

/// The fixed offered loads, requests per modeled second, set from a ladder
/// measured on this mix (see `README.md`): at `light` latency is about the
/// service time, at `knee` p95 approaches the limit just below where the
/// backlog starts to grow, and at `overload` the engine starts shedding.
const RATES: [(&str, f64); 3] = [
    ("light", 40_000.0),
    ("knee", 70_000.0),
    ("overload", 100_000.0),
];
/// Requests submitted per rate; 200 or more keep ten samples beyond p95.
const REQUESTS: usize = 252;
/// Latency limit on p95, modeled seconds.
const LIMIT_S: f64 = 1e-3;
/// Per-request deadline after arrival, modeled seconds.
const DEADLINE_S: f64 = 4.0 * LIMIT_S;
/// Bisection probes that narrow `max_rate_rps` between the ladder's
/// bracketing rates.
const BISECT_STEPS: usize = 5;
/// Span id of the bisection probes.
const PROBE_ID: u64 = u64::MAX - 1;
/// Seed of the arrival schedule and shape order (fixed; see `setup`).
const SCHEDULE_SEED: u64 = 0x5EED_0A11;
/// Distinct seeded data sets per shape; requests pick among them.
const VARIANTS: usize = 4;

/// Which crate's kernel family a shape exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Family {
    Special,
    General,
    Gemm,
    Systolic,
    F16,
    I8,
}

struct Shape {
    family: Family,
    problem: ConvProblem,
    dtype: DType,
}

fn shapes() -> Vec<Shape> {
    let s = |family, problem, dtype| Shape {
        family,
        problem,
        dtype,
    };
    vec![
        s(Family::Special, ConvProblem::special(66, 8, 5), DType::F32),
        s(Family::F16, ConvProblem::special(66, 8, 3), DType::F16),
        s(Family::I8, ConvProblem::special(66, 8, 3), DType::I8),
        s(
            Family::General,
            ConvProblem::general(34, 4, 32, 3),
            DType::F32,
        ),
        s(
            Family::General,
            ConvProblem::general(36, 4, 32, 5),
            DType::F32,
        ),
        s(
            Family::General,
            ConvProblem::general(38, 2, 32, 7),
            DType::F32,
        ),
        s(
            Family::Gemm,
            ConvProblem::general(35, 4, 32, 3).with_stride(2),
            DType::F32,
        ),
        s(
            Family::Systolic,
            ConvProblem::general(34, 8, 8, 3).with_dilation(2),
            DType::F32,
        ),
        s(
            Family::Systolic,
            ConvProblem::general(34, 8, 8, 3).depthwise(),
            DType::F32,
        ),
    ]
}

fn data_type(d: DType) -> DataType {
    match d {
        DType::F32 => DataType::F32,
        DType::F16 => DataType::F16,
        DType::I8 => DataType::I8,
    }
}

/// One shape's seeded data set and, for f32, its CPU reference.
struct Data {
    input: FeatureMaps,
    filters: kconv_tensor::FilterSet,
    reference: Option<FeatureMaps>,
}

/// A standalone run of one shape's plan outside the engine.
struct Standalone {
    family: Family,
    engine: String,
    stats: KernelStats,
    timing: Timing,
}

/// The request list: shape index and data variant per request, and each
/// request's arrival at one request per modeled second. A rate `r` divides
/// the arrivals by `r`, which keeps them a Poisson process, so every rate
/// serves the same requests in the same order.
struct Schedule {
    picks: Vec<(usize, usize)>,
    unit_arrivals: Vec<f64>,
}

struct Setup {
    shapes: Vec<Shape>,
    data: Vec<Vec<Data>>,
    alone: Vec<Standalone>,
    schedule: Schedule,
    /// The warm-up run of each rate in [`RATES`]; every later run of the
    /// same rate must reproduce it.
    warm: Vec<RateRun>,
}

fn setup(seed: u64, gate: &mut Gate, t: &mut Tracer) -> Setup {
    let shapes = shapes();
    let mut rng = StdRng::seed_from_u64(seed);
    let data: Vec<Vec<Data>> = shapes
        .iter()
        .map(|sh| {
            let p = &sh.problem;
            (0..VARIANTS)
                .map(|_| {
                    let input = random_maps(p.channels, p.height, p.width, rng.next_u64());
                    let filters =
                        random_filters(p.filters, p.channels_per_group(), p.k, rng.next_u64());
                    let reference = (sh.dtype == DType::F32).then(|| {
                        t.span("core.reference", SETUP_ID, |_| {
                            conv_reference(p, &input, &filters)
                        })
                    });
                    Data {
                        input,
                        filters,
                        reference,
                    }
                })
                .collect()
        })
        .collect();

    // Standalone service: each shape's plan run once on an idle device.
    let spec = GpuSpec::kepler_k40m();
    let mut cache = PlanCache::new();
    let alone: Vec<Standalone> = shapes
        .iter()
        .zip(&data)
        .filter_map(|(sh, d)| {
            let plan = t.span("apps.resolve", SETUP_ID, |_| {
                cache.plan_for(Engine::Auto, &spec, &sh.problem, data_type(sh.dtype))
            });
            let conv = match plan {
                Ok(p) => p.instantiate(),
                Err(e) => {
                    gate.op(false, || format!("{}: no plan: {e}", sh.problem));
                    return None;
                }
            };
            let mut gpu = Gpu::new(spec.clone()).with_parallelism(Parallelism::Serial);
            let run = t.span("core.run", SETUP_ID, |_| {
                conv.run(
                    &mut gpu,
                    &sh.problem,
                    &d[0].input,
                    &d[0].filters,
                    SimMode::Full,
                )
            });
            let ok = run.as_ref().is_ok_and(|r| {
                d[0].reference.as_ref().is_none_or(|want| {
                    worst_mismatch(r.output.as_slice(), want.as_slice(), CONV_TOL).is_none()
                })
            });
            gate.op(ok, || {
                format!("{}: standalone run failed or mismatched", sh.problem)
            });
            run.ok().map(|r| Standalone {
                family: sh.family,
                engine: conv.name(),
                stats: r.report.stats,
                timing: r.report.timing,
            })
        })
        .collect();

    // The arrival schedule and shape order are part of the workload, like
    // the mix itself; the seed picks each request's data. Modeled latency
    // does not depend on the data, so the serving metrics compare exactly
    // between two versions of the program.
    let mut order = StdRng::seed_from_u64(SCHEDULE_SEED);
    // A balanced mix in shuffled order: every shape equally often.
    let mut picks: Vec<(usize, usize)> = (0..REQUESTS)
        .map(|i| (i % shapes.len(), rng.gen_range(0..VARIANTS)))
        .collect();
    for i in (1..picks.len()).rev() {
        let j = order.gen_range(0..i + 1);
        let (a, b) = (picks[i].0, picks[j].0);
        picks[i].0 = b;
        picks[j].0 = a;
    }
    let schedule = Schedule {
        picks,
        unit_arrivals: poisson_arrivals(&mut order, 1.0, REQUESTS),
    };
    let mut s = Setup {
        shapes,
        data,
        alone,
        schedule,
        warm: Vec::new(),
    };
    // Warm-up: one engine run per rate, gated like the timed runs.
    s.warm = RATES
        .iter()
        .map(|&(_, rate)| serve_rate(&s, rate, gate, t, SETUP_ID))
        .collect();
    s
}

/// What one rate's run measured.
#[derive(Debug, Clone, PartialEq)]
struct RateRun {
    latencies: Vec<f64>,
    waits: Vec<f64>,
    metrics: ServeMetrics,
}

impl RateRun {
    /// This run's ladder level, printed with its name.
    fn level(&self, name: &str, rate: f64) -> RateLevel {
        let l = RateLevel {
            rate,
            p95: tail_percentile(&self.latencies, 95.0),
            refused: self.metrics.rejected + self.metrics.deadline_exceeded,
            backlog: backlog_grows(&self.waits, LIMIT_S),
        };
        let ms = |p| tail_percentile(&self.latencies, p).map(|v| v * 1e3);
        eprintln!(
            "kbench: serve {name}: rate {rate:.0} p50_ms {:?} p95_ms {:?} shed {} expired {} backlog {} meets {}",
            ms(50.0),
            ms(95.0),
            self.metrics.rejected,
            self.metrics.deadline_exceeded,
            l.backlog,
            l.meets(LIMIT_S)
        );
        l
    }
}

/// Serves the schedule at `rate` on a fresh engine and gates every request.
fn serve_rate(s: &Setup, rate: f64, gate: &mut Gate, t: &mut Tracer, id: u64) -> RateRun {
    let sched = &s.schedule;
    let requests: Vec<ConvRequest> = sched
        .picks
        .iter()
        .zip(&sched.unit_arrivals)
        .map(|(&(shape, v), &unit)| {
            let d = &s.data[shape][v];
            let at = unit / rate;
            ConvRequest::new(s.shapes[shape].problem, d.input.clone(), d.filters.clone())
                .with_dtype(s.shapes[shape].dtype)
                .at(at)
                .with_deadline(at + DEADLINE_S)
        })
        .collect();
    let mut engine = ServeEngine::new(GpuSpec::kepler_k40m(), ServeConfig::default());
    let res = t.span("serve.run", id, |_| engine.run(requests));
    let metrics = *engine.metrics();
    gate.op(
        res.len() == sched.picks.len()
            && res.iter().enumerate().all(|(i, r)| r.id.0 == i as u64)
            && metrics.completed + metrics.rejected + metrics.deadline_exceeded + metrics.failed
                == metrics.submitted,
        || "serve: a request did not reach exactly one terminal state".into(),
    );
    let mut latencies = Vec::new();
    let mut waits = Vec::new();
    for (r, &(shape, v)) in res.iter().zip(&sched.picks) {
        let ok = match &r.outcome {
            Served::Completed(c) => {
                latencies.push(c.latency);
                let service = s.alone.get(shape).map_or(0.0, |a| a.timing.t_total);
                waits.push(c.latency - service);
                c.clean()
                    && s.data[shape][v].reference.as_ref().is_none_or(|want| {
                        worst_mismatch(c.output.as_slice(), want.as_slice(), CONV_TOL).is_none()
                    })
            }
            // Shedding and expiry are the engine's designed response to
            // overload; a malformed rejection or a failure is not.
            Served::Rejected(ServeError::QueueFull { .. }) | Served::DeadlineExceeded(_) => true,
            Served::Rejected(_) | Served::Failed(_) => false,
        };
        gate.op(ok, || {
            format!("serve request {}: {:?}", r.id, r.outcome.label())
        });
    }
    RateRun {
        latencies,
        waits,
        metrics,
    }
}

/// Serves every rate in [`RATES`] and checks each reproduces its warm-up.
fn iterate(s: &Setup, gate: &mut Gate, t: &mut Tracer, id: u64) -> Vec<RateRun> {
    RATES
        .iter()
        .zip(&s.warm)
        .map(|(&(_, rate), warm)| {
            let run = serve_rate(s, rate, gate, t, id);
            gate.op(run == *warm, || {
                "serve results drifted between iterations".into()
            });
            run
        })
        .collect()
}

fn service_ms(alone: &[Standalone], family: Family) -> f64 {
    let v: Vec<f64> = alone
        .iter()
        .filter(|a| a.family == family)
        .map(|a| a.timing.t_total * 1e3)
        .collect();
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Checks each shape routed to the kernel family it is in the mix for.
fn check_routes(s: &Setup, gate: &mut Gate) {
    for a in &s.alone {
        let want = match a.family {
            Family::Special => "special",
            Family::General => "general",
            Family::Gemm => "GEMM",
            Family::Systolic => "systolic",
            Family::F16 => "half2",
            Family::I8 => "int8",
        };
        gate.op(a.engine.contains(want), || {
            format!("{:?} shape routed to {}", a.family, a.engine)
        });
    }
}

/// Runs the workload; see the module docs.
pub fn run(ctx: &Ctx) -> Outcome {
    let mut gate = Gate::default();
    let mut off = Tracer::new(false);
    if !ctx.traced {
        let (s, setup_times, walls) = crate::rounds(
            ctx.seconds,
            &mut gate,
            |g| {
                let s = setup(ctx.seed, g, &mut Tracer::new(false));
                check_routes(&s, g);
                s
            },
            |s, g, i| {
                iterate(s, g, &mut off, i);
            },
        );
        let levels: Vec<RateLevel> = s
            .warm
            .iter()
            .zip(RATES)
            .map(|(r, (name, rate))| r.level(name, rate))
            .collect();
        let max_rate_rps = bisect_max_rate(&levels, LIMIT_S, BISECT_STEPS, |rate| {
            serve_rate(&s, rate, &mut gate, &mut off, PROBE_ID)
                .level("probe", rate)
                .meets(LIMIT_S)
        });
        eprintln!("kbench: serve max_rate {max_rate_rps}");
        let runs = &s.warm;
        let knee = &runs[1].latencies;
        let over = &runs[2];
        let metrics = crate::end_to_end(
            &setup_times,
            &walls,
            crate::Modeled {
                // One request of each shape, back to back on an idle device.
                modeled_ms: s.alone.iter().map(|a| a.timing.t_total).sum::<f64>() * 1e3,
                p50_ms: tail_percentile(knee, 50.0).unwrap_or(0.0) * 1e3,
                p95_ms: tail_percentile(knee, 95.0).unwrap_or(0.0) * 1e3,
                max_rate_rps,
                goodput_rps: goodput(&over.latencies, LIMIT_S, over.metrics.makespan),
            },
        );
        return Outcome {
            gate,
            metrics,
            tracer: off,
        };
    }

    let mut on = Tracer::new(true);
    let s = setup(ctx.seed, &mut gate, &mut on);
    check_routes(&s, &mut gate);
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let mut serve_s = Vec::new();
    let mut runs = Vec::new();
    let mut id = 0;
    let t0 = Instant::now();
    while plain.len() < 2 || t0.elapsed().as_secs_f64() < ctx.seconds {
        let a = Instant::now();
        iterate(&s, &mut gate, &mut off, id);
        plain.push(a.elapsed().as_secs_f64());
        let a = Instant::now();
        runs = iterate(&s, &mut gate, &mut on, id);
        traced.push(a.elapsed().as_secs_f64());
        serve_s.push(on.self_seconds(id, "serve.run"));
        id += 1;
    }

    let mut layers = Layers::default();
    layers.add("bench.wall_s", median(&plain));
    layers.add("bench.trace_overhead", median(&traced) / median(&plain));
    layers.add("serve.run_s", median(&serve_s));
    let run_s = on.self_seconds(SETUP_ID, "core.run");
    layers.add("core.run_s", run_s);
    layers.add("apps.resolve_s", on.self_seconds(SETUP_ID, "apps.resolve"));
    layers.add(
        "core.reference_s",
        on.self_seconds(SETUP_ID, "core.reference"),
    );
    let stats: Vec<&KernelStats> = s.alone.iter().map(|a| &a.stats).collect();
    let timings: Vec<&Timing> = s.alone.iter().map(|a| &a.timing).collect();
    crate::sim_layers(&mut layers, &stats, &timings);
    layers.add(
        "sim.ns_per_mem_request",
        run_s * 1e9 / crate::mem_requests(&stats).max(1) as f64,
    );
    layers.add(
        "core.service_ms.special",
        service_ms(&s.alone, Family::Special),
    );
    layers.add(
        "core.service_ms.general",
        service_ms(&s.alone, Family::General),
    );
    layers.add("gemm.service_ms", service_ms(&s.alone, Family::Gemm));
    layers.add(
        "systolic.service_ms",
        service_ms(&s.alone, Family::Systolic),
    );
    layers.add("arch.service_ms.f16", service_ms(&s.alone, Family::F16));
    layers.add("arch.service_ms.i8", service_ms(&s.alone, Family::I8));
    let gemm: Vec<&Standalone> = s
        .alone
        .iter()
        .filter(|a| a.family == Family::Gemm)
        .collect();
    let (hits, lines) = gemm.iter().fold((0, 0), |(h, l), a| {
        (
            h + a.stats.gm_ro_hits,
            l + a.stats.gm_ro_hits + a.stats.gm_ld_transactions,
        )
    });
    layers.add("gemm.ro_hit_ratio", hits as f64 / lines.max(1) as f64);
    layers.add(
        "systolic.bar_syncs",
        s.alone
            .iter()
            .filter(|a| a.family == Family::Systolic)
            .map(|a| a.stats.bar_syncs)
            .sum::<u64>() as f64,
    );

    let [light, knee, over] = &runs[..] else {
        unreachable!("one run per rate")
    };
    let m = &knee.metrics;
    layers.add("serve.batches", m.batches as f64);
    layers.add(
        "serve.mean_batch",
        (m.submitted - m.rejected) as f64 / m.batches.max(1) as f64,
    );
    layers.add(
        "serve.plan_hit_ratio",
        m.plan_hits as f64 / (m.plan_hits + m.plan_misses).max(1) as f64,
    );
    let all = [light, knee, over];
    layers.add(
        "serve.shed",
        all.iter().map(|r| r.metrics.rejected).sum::<u64>() as f64,
    );
    layers.add(
        "serve.deadline_exceeded",
        all.iter().map(|r| r.metrics.deadline_exceeded).sum::<u64>() as f64,
    );
    let ms = |v: &[f64], p| tail_percentile(v, p).unwrap_or(0.0) * 1e3;
    layers.add("serve.wait_p50_ms", ms(&knee.waits, 50.0));
    layers.add("serve.wait_p95_ms", ms(&knee.waits, 95.0));
    layers.add("serve.p50_ms.light", ms(&light.latencies, 50.0));
    layers.add("serve.p95_ms.light", ms(&light.latencies, 95.0));
    layers.add("serve.p95_ms.overload", ms(&over.latencies, 95.0));
    Outcome {
        gate,
        metrics: layers.into_metrics(),
        tracer: on,
    }
}
