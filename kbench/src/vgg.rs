//! `vgg-full`: the VGG-like forward pass, a few huge launches.
//!
//! One iteration is `LayerStack::vgg_like().run` on a seeded 3x130x130
//! input with `Engine::Auto` and `SimMode::Full` on a fresh serial K40m
//! `Gpu`. All three convolutions route to the paper's general kernel. The
//! traced run replaces the single stack call by the same per-layer calls
//! (`Engine::resolve`, `Convolution::run`, `relu_device`,
//! `max_pool2_device`) inside spans.

use std::time::Instant;

use kconv_apps::{max_pool2_device, relu_device, Engine, LayerStack};
use kconv_core::conv_reference;
use kconv_sim::mem::lanes;
use kconv_sim::{Gpu, GpuSpec, KernelStats, LaunchReport, Parallelism, SimMode, Timing};
use kconv_tensor::{random_maps, ConvProblem, FeatureMaps, CONV_TOL};

use crate::report::Gate;
use crate::spans::Tracer;
use crate::stats::median;
use crate::{held_out, Ctx, Layers, Outcome, SETUP_ID};

const SIDE: usize = 130;

fn gpu() -> Gpu {
    Gpu::new(GpuSpec::kepler_k40m()).with_parallelism(Parallelism::Serial)
}

/// Host ReLU and 2x2 max pooling, the oracle for the device post ops.
fn host_post(maps: &FeatureMaps, relu: bool, pool: bool) -> FeatureMaps {
    let mut m = maps.clone();
    if relu {
        for v in m.as_mut_slice() {
            *v = v.max(0.0);
        }
    }
    if pool && m.height() >= 2 && m.width() >= 2 {
        let src = m;
        m = FeatureMaps::from_fn(
            src.channels(),
            src.height() / 2,
            src.width() / 2,
            |c, y, x| {
                let (yy, xx) = (2 * y, 2 * x);
                src.get(c, yy, xx)
                    .max(src.get(c, yy, xx + 1))
                    .max(src.get(c, yy + 1, xx))
                    .max(src.get(c, yy + 1, xx + 1))
            },
        );
    }
    m
}

/// One conv layer as the per-layer sequence saw it.
#[derive(Debug, Clone)]
struct ConvLaunch {
    stats: KernelStats,
    timing: Timing,
    post: Vec<LaunchReport>,
}

/// A layer's tensors, kept by set-up to verify each launch on its own
/// input.
struct LayerData {
    problem: ConvProblem,
    input: FeatureMaps,
    conv_out: FeatureMaps,
    post_out: FeatureMaps,
}

/// The per-layer call sequence `LayerStack::run` makes, each call in a
/// span; `keep` collects every layer's tensors.
fn forward_per_layer(
    stack: &LayerStack,
    input: &FeatureMaps,
    t: &mut Tracer,
    id: u64,
    mut keep: Option<&mut Vec<LayerData>>,
) -> Result<(FeatureMaps, Vec<ConvLaunch>), String> {
    let mut g = gpu();
    let mut maps = input.clone();
    let mut launches = Vec::new();
    for layer in &stack.layers {
        let problem = ConvProblem::new(
            maps.channels(),
            maps.height(),
            maps.width(),
            layer.filters.count(),
            layer.filters.k(),
        )
        .with_stride(layer.stride);
        let conv = t
            .span("apps.resolve", id, |_| Engine::Auto.resolve(&g, &problem))
            .map_err(|e| e.to_string())?;
        let run = t
            .span("core.run", id, |_| {
                conv.run(&mut g, &problem, &maps, &layer.filters, SimMode::Full)
            })
            .map_err(|e| format!("{}: {e}", layer.name))?;
        let layer_input = std::mem::replace(&mut maps, run.output);
        let conv_out = keep.as_ref().map(|_| maps.clone());
        let mut post = Vec::new();
        t.span("apps.post", id, |_| -> Result<(), String> {
            if layer.relu {
                let (out, r) = relu_device(&mut g, &maps).map_err(|e| e.to_string())?;
                maps = out;
                post.push(r);
            }
            if layer.pool && maps.height() >= 2 && maps.width() >= 2 {
                let (out, r) = max_pool2_device(&mut g, &maps).map_err(|e| e.to_string())?;
                maps = out;
                post.push(r);
            }
            Ok(())
        })?;
        if let (Some(keep), Some(conv_out)) = (keep.as_mut(), conv_out) {
            keep.push(LayerData {
                problem,
                input: layer_input,
                conv_out,
                post_out: maps.clone(),
            });
        }
        launches.push(ConvLaunch {
            stats: run.report.stats,
            timing: run.report.timing,
            post,
        });
    }
    Ok((maps, launches))
}

/// The worst element whose error exceeds [`CONV_TOL`] relative to the
/// layer's output scale, `max(1, max |want|)`. Deep layers sum thousands
/// of terms of magnitude near that scale, so an output that cancels to
/// near zero carries rounding error proportional to the scale, not to
/// itself; a wrong kernel errs by the scale itself.
fn worst_scaled_mismatch(got: &[f32], want: &[f32]) -> Option<(usize, f32)> {
    if got.len() != want.len() {
        return Some((0, f32::INFINITY));
    }
    let scale = want.iter().fold(1.0f32, |m, v| m.max(v.abs()));
    got.iter()
        .zip(want)
        .map(|(g, w)| (g - w).abs() / scale)
        .enumerate()
        .filter(|&(_, e)| e.is_nan() || e > CONV_TOL)
        .max_by(|a, b| a.1.total_cmp(&b.1))
}

fn bits(m: &FeatureMaps) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// What set-up leaves for the timed iterations.
struct Setup {
    stack: LayerStack,
    input: FeatureMaps,
    /// Output bits of the verified warm-up pass.
    golden: Vec<u32>,
    /// The warm-up pass's conv launches.
    launches: Vec<ConvLaunch>,
}

/// Input generation, one warm-up pass through the per-layer calls, and
/// the CPU reference of every conv launch on that launch's own input (a
/// reference chained from the network input would compound rounding
/// differences across layers), plus the host oracle for ReLU and pooling.
fn setup(seed: u64, gate: &mut Gate, t: &mut Tracer) -> Setup {
    let stack = LayerStack::vgg_like();
    let input = random_maps(3, SIDE, SIDE, seed);
    let mut kept = Vec::new();
    let (golden, launches) = match forward_per_layer(&stack, &input, t, SETUP_ID, Some(&mut kept)) {
        Ok((out, launches)) => (bits(&out), launches),
        Err(e) => {
            gate.op(false, || format!("vgg-full warm-up pass: {e}"));
            (Vec::new(), Vec::new())
        }
    };
    for (i, (d, layer)) in kept.iter().zip(&stack.layers).enumerate() {
        let want = t.span("core.reference", SETUP_ID, |_| {
            conv_reference(&d.problem, &d.input, &layer.filters)
        });
        let mismatch = worst_scaled_mismatch(d.conv_out.as_slice(), want.as_slice());
        gate.op(mismatch.is_none(), || {
            format!("vgg-full conv{} differs from the CPU reference (index, scaled error): {mismatch:?}", i + 1)
        });
        let post_ok = bits(&host_post(&d.conv_out, layer.relu, layer.pool)) == bits(&d.post_out);
        gate.op(post_ok, || {
            format!(
                "vgg-full layer {} ReLU/pool differs from the host oracle",
                i + 1
            )
        });
    }
    Setup {
        stack,
        input,
        golden,
        launches,
    }
}

fn modeled_ms(launches: &[ConvLaunch]) -> f64 {
    launches
        .iter()
        .map(|c| c.timing.t_total + c.post.iter().map(LaunchReport::seconds).sum::<f64>())
        .sum::<f64>()
        * 1e3
}

/// One untraced iteration: the single `LayerStack::run` call, which must
/// reproduce the per-layer warm-up pass bit for bit.
fn iterate(s: &Setup, gate: &mut Gate) {
    match s
        .stack
        .run(&mut gpu(), s.input.clone(), Engine::Auto, SimMode::Full)
    {
        Ok(run) => {
            let same_out = bits(&run.output) == s.golden;
            for (i, (l, c)) in run.layers.iter().zip(&s.launches).enumerate() {
                let post: f64 = c.post.iter().map(LaunchReport::seconds).sum();
                let general = l.engine.contains("general");
                gate.op(same_out && general && l.seconds == c.timing.t_total && l.post_seconds == post, || {
                    format!("vgg-full layer {}: engine, output or modeled time differs from the per-layer pass", i + 1)
                });
            }
        }
        Err(e) => gate.op(false, || format!("vgg-full pass: {e}")),
    }
}

fn bottleneck_code(t: &Timing) -> f64 {
    match t.bottleneck() {
        "compute" => 1.0,
        "shared memory" => 2.0,
        "global memory" => 3.0,
        _ => 4.0,
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
            |g| setup(ctx.seed, g, &mut off),
            |s, g, _| iterate(s, g),
        );
        let ms = modeled_ms(&s.launches);
        let metrics = crate::end_to_end(
            &setup_times,
            &walls,
            crate::Modeled {
                modeled_ms: ms,
                // A forward pass on an idle device: every percentile of its
                // latency is the pass time, and back-to-back passes, each
                // verified, are the most the device sustains.
                p50_ms: ms,
                p95_ms: ms,
                max_rate_rps: 1e3 / ms,
                goodput_rps: 1e3 / ms,
            },
        );
        return Outcome {
            gate,
            metrics,
            tracer: off,
        };
    }

    // Traced run: set up once, then alternate untraced stack passes with
    // traced per-layer passes so the overhead ratio compares like with like.
    let mut on = Tracer::new(true);
    let s = setup(ctx.seed, &mut gate, &mut on);
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let mut per_iter: Vec<Layers> = Vec::new();
    let mut id = 0;
    let t0 = Instant::now();
    while plain.len() < 2 || t0.elapsed().as_secs_f64() < ctx.seconds {
        let a = Instant::now();
        iterate(&s, &mut gate);
        plain.push(a.elapsed().as_secs_f64());
        let a = Instant::now();
        let res = forward_per_layer(&s.stack, &s.input, &mut on, id, None);
        traced.push(a.elapsed().as_secs_f64());
        gate.op(
            res.as_ref()
                .is_ok_and(|(out, l)| bits(out) == s.golden && same_stats(l, &s.launches)),
            || {
                format!(
                    "traced per-layer pass differs from the warm-up pass: {:?}",
                    res.as_ref().err()
                )
            },
        );
        let mut l = Layers::default();
        l.add("core.run_s", on.self_seconds(id, "core.run"));
        l.add("apps.resolve_s", on.self_seconds(id, "apps.resolve"));
        l.add("apps.post_s", on.self_seconds(id, "apps.post"));
        let conv_spans = on
            .spans()
            .iter()
            .filter(|sp| sp.id == id && sp.name == "core.run");
        for (i, sp) in conv_spans.enumerate() {
            l.add(&format!("core.run_s.conv{}", i + 1), sp.end - sp.start);
        }
        per_iter.push(l);
        id += 1;
    }

    let mut layers = Layers::median(&per_iter);
    layers.add("bench.wall_s", median(&plain));
    layers.add("bench.trace_overhead", median(&traced) / median(&plain));
    layers.add(
        "core.reference_s",
        on.self_seconds(SETUP_ID, "core.reference"),
    );
    let mut stats: Vec<&KernelStats> = s.launches.iter().map(|c| &c.stats).collect();
    let timings: Vec<&Timing> = s.launches.iter().map(|c| &c.timing).collect();
    crate::sim_layers(&mut layers, &stats, &timings);
    for (i, c) in s.launches.iter().enumerate() {
        layers.add(
            &format!("sim.bottleneck.conv{}", i + 1),
            bottleneck_code(&c.timing),
        );
    }
    stats.extend(
        s.launches
            .iter()
            .flat_map(|c| c.post.iter().map(|r| &r.stats)),
    );
    let host = layers.get("core.run_s") + layers.get("apps.post_s");
    layers.add(
        "sim.ns_per_mem_request",
        host * 1e9 / crate::mem_requests(&stats).max(1) as f64,
    );
    let post_ms: f64 = s
        .launches
        .iter()
        .flat_map(|c| c.post.iter().map(LaunchReport::seconds))
        .sum::<f64>()
        * 1e3;
    layers.add("apps.post_modeled_ms", post_ms);

    // Lane-backend A/B: the same pass under each forced backend; counters
    // and output must not move.
    let auto = lanes::active();
    for backend in lanes::Backend::available() {
        lanes::force(backend);
        let mut t = Tracer::new(true);
        let res = forward_per_layer(&s.stack, &s.input, &mut t, 0, None);
        let run_s = t.self_seconds(0, "core.run");
        gate.op(
            res.is_ok_and(|(out, l)| bits(&out) == s.golden && same_stats(&l, &s.launches)),
            || format!("lane backend {} changed vgg-full results", backend.name()),
        );
        layers.add(&format!("core.run_s.lanes.{}", backend.name()), run_s);
    }
    lanes::force(auto);

    // Held-out seed: dense-kernel traffic does not depend on the data.
    let other = random_maps(3, SIDE, SIDE, held_out(ctx.seed));
    let res = forward_per_layer(&s.stack, &other, &mut off, 0, None);
    gate.op(res.is_ok_and(|(_, l)| same_stats(&l, &s.launches)), || {
        "vgg-full counters or modeled time changed on the held-out seed".into()
    });
    Outcome {
        gate,
        metrics: layers.into_metrics(),
        tracer: on,
    }
}

/// Whether two passes' conv launches have identical counters and timing.
fn same_stats(a: &[ConvLaunch], b: &[ConvLaunch]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.stats == y.stats
                && x.timing == y.timing
                && x.post.len() == y.post.len()
                && x.post
                    .iter()
                    .zip(&y.post)
                    .all(|(p, q)| p.stats == q.stats && p.timing == q.timing)
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_mismatch_uses_the_layer_scale() {
        // Rounding noise on a cancelled output of a large-magnitude layer.
        assert_eq!(worst_scaled_mismatch(&[300.0, 0.2], &[300.0, 0.2008]), None);
        // The same absolute error on a unit-scale layer is a mismatch.
        assert_eq!(
            worst_scaled_mismatch(&[1.0, 0.2], &[1.0, 0.2008]).map(|m| m.0),
            Some(1)
        );
        assert!(worst_scaled_mismatch(&[f32::NAN], &[0.0]).is_some());
        assert!(worst_scaled_mismatch(&[0.0], &[0.0, 0.0]).is_some());
    }
}
