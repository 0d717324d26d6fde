//! `kbench` — the kconv benchmark: end-to-end and per-layer metrics of three
//! workloads, each driven through the crates' public APIs.
//!
//! ```text
//! kbench --workload <vgg-full|replay-farm|serve-mixed|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every input and arrival time derives from `--seed`. A run makes a few
//! rounds, each a fresh set-up followed by repeats of the workload's
//! iteration, for `--seconds` in all, and reports medians. With
//! `--trace 0` the result carries the end-to-end metrics; with `--trace 1`
//! it carries the per-layer metrics from spans the benchmark records
//! around its calls into each crate. The last stdout line is the result
//! JSON; the process exits non-zero when any correctness gate failed.
//! See `README.md` beside this crate for every metric's definition.

mod farm;
mod host;
mod report;
mod serve;
mod spans;
mod stats;
mod vgg;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

use kconv_sim::{GpuSpec, KernelStats, Timing};

use report::{Gate, Metric, MODEL_MS, S};
use spans::Tracer;

/// Span id for calls made during set-up.
pub const SETUP_ID: u64 = u64::MAX;
/// Rounds a run makes, each with a fresh set-up; the median set-up time is
/// reported.
pub const ROUNDS: usize = 3;

/// The workloads, in the order `all` runs them.
pub const WORKLOADS: [&str; 3] = ["vgg-full", "replay-farm", "serve-mixed"];

/// End-to-end metrics, reported by every workload with tracing off.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", S),
    ("peak_rss_mb", "MB"),
    ("modeled_ms", MODEL_MS),
    ("p50_ms", MODEL_MS),
    ("p95_ms", MODEL_MS),
    ("max_rate_rps", "1/s"),
    ("goodput_rps", "1/s"),
];

/// Per-layer metrics, reported by every workload's traced run (zero for a
/// layer the workload does not call).
pub const PER_LAYER: [(&str, &str); 60] = [
    ("bench.wall_s", S),
    ("bench.trace_overhead", "ratio"),
    ("bench.fail_frac", "frac"),
    ("core.run_s", S),
    ("core.run_s.conv1", S),
    ("core.run_s.conv2", S),
    ("core.run_s.conv3", S),
    ("core.run_s.lanes.scalar", S),
    ("core.run_s.lanes.swar", S),
    ("core.run_s.lanes.simd", S),
    ("core.reference_s", S),
    ("core.service_ms.special", MODEL_MS),
    ("core.service_ms.general", MODEL_MS),
    ("sim.mem_requests", "count"),
    ("sim.ns_per_mem_request", "ns"),
    ("sim.t_compute_ms", MODEL_MS),
    ("sim.t_smem_ms", MODEL_MS),
    ("sim.t_gm_ms", MODEL_MS),
    ("sim.t_cm_ms", MODEL_MS),
    ("sim.t_barrier_ms", MODEL_MS),
    ("sim.t_latency_ms", MODEL_MS),
    ("sim.bottleneck.conv1", "code"),
    ("sim.bottleneck.conv2", "code"),
    ("sim.bottleneck.conv3", "code"),
    ("sim.gm_bus_efficiency", "frac"),
    ("sim.sm_conflict_cycles", "count"),
    ("sim.sm_bank_utilization", "frac"),
    ("sim.barriers", "count"),
    ("sim.bar_syncs", "count"),
    ("apps.resolve_s", S),
    ("apps.post_s", S),
    ("apps.post_modeled_ms", MODEL_MS),
    ("trace.decode_s", S),
    ("trace.bytes", "bytes"),
    ("trace.events", "count"),
    ("trace.decoded_bytes", "bytes"),
    ("replay.sweep_s", S),
    ("replay.ns_per_event", "ns"),
    ("replay.errors", "count"),
    ("replay.sweep_s.lanes.scalar", S),
    ("replay.sweep_s.lanes.swar", S),
    ("replay.sweep_s.lanes.simd", S),
    ("replay.sweep_s.threads2", S),
    ("serve.run_s", S),
    ("serve.batches", "count"),
    ("serve.mean_batch", "count"),
    ("serve.plan_hit_ratio", "frac"),
    ("serve.shed", "count"),
    ("serve.deadline_exceeded", "count"),
    ("serve.wait_p50_ms", MODEL_MS),
    ("serve.wait_p95_ms", MODEL_MS),
    ("gemm.service_ms", MODEL_MS),
    ("gemm.ro_hit_ratio", "frac"),
    ("systolic.service_ms", MODEL_MS),
    ("systolic.bar_syncs", "count"),
    ("arch.service_ms.f16", MODEL_MS),
    ("arch.service_ms.i8", MODEL_MS),
    ("serve.p50_ms.light", MODEL_MS),
    ("serve.p95_ms.light", MODEL_MS),
    ("serve.p95_ms.overload", MODEL_MS),
];

/// What one invocation was asked to do.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Workload seed.
    pub seed: u64,
    /// Measurement time in host seconds.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub traced: bool,
}

/// A workload's tally, metrics and recorded spans.
#[derive(Debug)]
pub struct Outcome {
    /// Correctness tally.
    pub gate: Gate,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Spans recorded (empty when untraced).
    pub tracer: Tracer,
}

/// A second seed, never passed on the command line, for the held-out
/// checks that modeled counters do not depend on the input data.
pub fn held_out(seed: u64) -> u64 {
    seed ^ 0xD1B5_4A32_D192_ED03
}

/// Runs a workload in [`ROUNDS`] rounds. Each round sets up afresh, timing
/// the set-up, then calls `iterate` on it, timing each call, for its share
/// of `seconds` and at least once. On a shared host the machine's speed
/// drifts over tens of seconds, so spreading the set-ups over the whole run
/// samples that drift better than set-ups made back to back at its start.
/// Returns the last set-up, each set-up's host seconds and each iteration's.
pub fn rounds<T>(
    seconds: f64,
    gate: &mut Gate,
    mut setup: impl FnMut(&mut Gate) -> T,
    mut iterate: impl FnMut(&T, &mut Gate, u64),
) -> (T, Vec<f64>, Vec<f64>) {
    let mut setups = Vec::new();
    let mut walls = Vec::new();
    let mut last = None;
    for _ in 0..ROUNDS {
        // Free the previous set-up first so peak memory holds one copy.
        drop(last.take());
        let t0 = Instant::now();
        let s = setup(gate);
        setups.push(t0.elapsed().as_secs_f64());
        let start = Instant::now();
        loop {
            let t0 = Instant::now();
            iterate(&s, gate, walls.len() as u64);
            walls.push(t0.elapsed().as_secs_f64());
            if start.elapsed().as_secs_f64() >= seconds / ROUNDS as f64 {
                break;
            }
        }
        last = Some(s);
    }
    (last.expect("ROUNDS > 0"), setups, walls)
}

/// The modeled end-to-end figures of one workload.
#[derive(Debug, Clone, Copy)]
pub struct Modeled {
    /// Modeled device milliseconds of the workload's unit of work.
    pub modeled_ms: f64,
    /// Median modeled latency per operation.
    pub p50_ms: f64,
    /// 95th-percentile modeled latency per operation.
    pub p95_ms: f64,
    /// Highest sustainable operation rate.
    pub max_rate_rps: f64,
    /// Operations completed correctly (and within the latency limit where
    /// one applies) per second.
    pub goodput_rps: f64,
}

/// Assembles the end-to-end metrics in [`END_TO_END`] order, after printing
/// the median host seconds per iteration, `wall_s`. That line is not in the
/// result: on a shared host it moved by 20-35% between runs of the same
/// code, more than any bound a result metric may have.
pub fn end_to_end(setup: &[f64], walls: &[f64], m: Modeled) -> Vec<Metric> {
    println!("{}", Metric::median_of("wall_s", S, walls).line());
    vec![
        Metric::median_of("setup_s", S, setup),
        Metric::one("peak_rss_mb", "MB", host::peak_rss_mb()),
        Metric::one("modeled_ms", MODEL_MS, m.modeled_ms),
        Metric::one("p50_ms", MODEL_MS, m.p50_ms),
        Metric::one("p95_ms", MODEL_MS, m.p95_ms),
        Metric::one("max_rate_rps", "1/s", m.max_rate_rps),
        Metric::one("goodput_rps", "1/s", m.goodput_rps),
    ]
}

/// Warp memory requests of some launches: global, shared and constant.
pub fn mem_requests(stats: &[&KernelStats]) -> u64 {
    stats
        .iter()
        .map(|s| s.gm_ld_requests + s.gm_st_requests + s.sm_requests() + s.cm_requests)
        .sum()
}

/// The `sim.*` per-layer counters and modeled-time components summed over
/// a workload's launches.
pub fn sim_layers(layers: &mut Layers, stats: &[&KernelStats], timings: &[&Timing]) {
    let spec = GpuSpec::kepler_k40m();
    let mut total = KernelStats::new();
    for s in stats {
        total.merge(s);
    }
    layers.add("sim.mem_requests", mem_requests(stats) as f64);
    let ms = |f: fn(&Timing) -> f64| timings.iter().map(|t| f(t)).sum::<f64>() * 1e3;
    layers.add("sim.t_compute_ms", ms(|t| t.t_compute));
    layers.add("sim.t_smem_ms", ms(|t| t.t_smem));
    layers.add("sim.t_gm_ms", ms(|t| t.t_gm));
    layers.add("sim.t_cm_ms", ms(|t| t.t_cm));
    layers.add("sim.t_barrier_ms", ms(|t| t.t_barrier));
    layers.add("sim.t_latency_ms", ms(|t| t.t_latency));
    layers.add("sim.gm_bus_efficiency", total.gm_coalescing_efficiency());
    layers.add(
        "sim.sm_conflict_cycles",
        total.sm_cycles().saturating_sub(total.sm_requests()) as f64,
    );
    layers.add(
        "sim.sm_bank_utilization",
        total.sm_bandwidth_utilization(spec.smem_bytes_per_cycle()),
    );
    layers.add("sim.barriers", total.barriers as f64);
    layers.add("sim.bar_syncs", total.bar_syncs as f64);
}

/// Per-layer values by metric name.
#[derive(Debug, Clone, Default)]
pub struct Layers(BTreeMap<String, f64>);

impl Layers {
    /// Sets `name` to `value`.
    pub fn add(&mut self, name: &str, value: f64) {
        self.0.insert(name.to_string(), value);
    }

    /// The value of `name`, 0 when unset.
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// Per name, the median over the samples that set it.
    pub fn median(samples: &[Layers]) -> Layers {
        let mut by_name: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        for s in samples {
            for (k, v) in &s.0 {
                by_name.entry(k).or_default().push(*v);
            }
        }
        Layers(
            by_name
                .into_iter()
                .map(|(k, v)| (k.to_string(), stats::median(&v)))
                .collect(),
        )
    }

    /// Every [`PER_LAYER`] metric in catalogue order, zero where unset.
    ///
    /// # Panics
    ///
    /// Panics if a name was set that the catalogue does not list.
    pub fn into_metrics(self) -> Vec<Metric> {
        for k in self.0.keys() {
            assert!(
                PER_LAYER.iter().any(|(n, _)| n == k),
                "per-layer metric {k} missing from the catalogue"
            );
        }
        PER_LAYER
            .iter()
            .map(|&(name, unit)| Metric::one(name, unit, self.get(name)))
            .collect()
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: kbench --workload <{}|all> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn parse_args(args: &[String]) -> Result<(String, Ctx), String> {
    let mut workload = None;
    let mut ctx = Ctx {
        seed: 0,
        seconds: 10.0,
        traced: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => ctx.seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => {
                ctx.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("bad --seconds {value}"))?;
            }
            "--trace" => {
                ctx.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value} (0 or 1)")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok((workload, ctx))
}

/// Parses a result line this program printed: the tally and every metric
/// at full precision.
fn parse_result(line: &str) -> Option<(Gate, Vec<Metric>)> {
    let field = |key: &str| -> Option<u64> {
        let rest = &line[line.find(&format!("\"{key}\": "))? + key.len() + 4..];
        rest[..rest.find(',')?].parse().ok()
    };
    let gate = Gate {
        attempted: field("attempted")?,
        failed: field("failed")?,
        notes: Vec::new(),
    };
    let body = &line[line.find("\"metrics\": {")? + 12..];
    let mut metrics = Vec::new();
    for entry in body.split("}, ").filter(|e| e.contains("\"value\"")) {
        // "name": {"value": V, "unit": "U" splits on quotes into
        // [_, name, _, value, V, unit, _, U, ..].
        let q: Vec<&str> = entry.split('"').collect();
        let value = q
            .get(4)?
            .trim_matches(|c: char| c == ':' || c == ',' || c == ' ');
        let unit = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|&(_, u)| u)
            .find(|u| Some(u) == q.get(7))?;
        metrics.push(Metric::one(*q.get(1)?, unit, value.parse().ok()?));
    }
    Some((gate, metrics))
}

/// Runs each workload in a child process of its own (so each reports its
/// own peak memory) and sums their tallies.
fn run_all(args: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("kbench: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut gate = Gate::default();
    let mut metrics = Vec::new();
    for w in WORKLOADS {
        let mut child_args = args.to_vec();
        if let Some(i) = child_args.iter().position(|a| a == "--workload") {
            child_args[i + 1] = w.to_string();
        }
        println!("== {w}");
        let out = match std::process::Command::new(&exe).args(&child_args).output() {
            Ok(o) => o,
            Err(e) => {
                eprintln!("kbench: cannot run {w}: {e}");
                return ExitCode::FAILURE;
            }
        };
        eprint!("{}", String::from_utf8_lossy(&out.stderr));
        let stdout = String::from_utf8_lossy(&out.stdout);
        let mut lines: Vec<&str> = stdout.lines().collect();
        let parsed = lines.pop().and_then(parse_result);
        for l in lines {
            println!("{l}");
        }
        match parsed {
            Some((g, ms)) if out.status.success() => {
                gate.attempted += g.attempted;
                gate.failed += g.failed;
                for m in ms {
                    metrics.push(Metric {
                        name: format!("{w}.{}", m.name),
                        ..m
                    });
                }
            }
            _ => gate.op(false, || format!("{w} failed")),
        }
    }
    println!("{}", report::result_json(&gate, &metrics));
    if gate.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    // Every workload runs single-threaded, whatever the environment asks
    // of `Gpu::new` (the serving engine creates its own devices).
    std::env::set_var("KCONV_THREADS", "serial");
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, ctx) = match parse_args(&args) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("kbench: {e}");
            return usage();
        }
    };
    if workload == "all" {
        return run_all(&args);
    }
    let outcome = match workload.as_str() {
        "vgg-full" => vgg::run(&ctx),
        "replay-farm" => farm::run(&ctx),
        _ => serve::run(&ctx),
    };
    let mut metrics = outcome.metrics;
    if ctx.traced {
        let frac = outcome.gate.failed as f64 / outcome.gate.attempted.max(1) as f64;
        if let Some(m) = metrics.iter_mut().find(|m| m.name == "bench.fail_frac") {
            m.value = frac;
        }
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("traces");
        let path = dir.join(format!("{workload}-seed{}.spans.jsonl", ctx.seed));
        if let Err(e) = std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, outcome.tracer.to_json_lines()))
        {
            eprintln!("kbench: spans not written to {}: {e}", path.display());
        }
    }
    for m in &metrics {
        println!("{}", m.line());
    }
    println!("host {}", host::Fingerprint::read(ctx.seed).to_json());
    for note in &outcome.gate.notes {
        eprintln!("kbench: FAILED: {note}");
    }
    println!("{}", report::result_json(&outcome.gate, &metrics));
    if outcome.gate.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_names_are_unique_and_valid() {
        let names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|(n, _)| *n)
            .collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "duplicate metric name");
        for n in names {
            assert!(n.len() <= 64 && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric()));
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'));
        }
    }

    #[test]
    fn benchmark_json_lists_the_catalogue() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for w in WORKLOADS {
            assert!(json.contains(&format!("\"name\": \"{w}\"")), "{w}");
        }
    }

    #[test]
    fn args_parse_and_reject() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let (w, c) = parse_args(&args(
            "--workload vgg-full --seed 7 --seconds 2.5 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (w.as_str(), c.seed, c.seconds, c.traced),
            ("vgg-full", 7, 2.5, true)
        );
        assert!(parse_args(&args("--workload nope")).is_err());
        assert!(parse_args(&args("--workload all --trace 2")).is_err());
        assert!(parse_args(&args("--seed 1")).is_err());
        assert!(parse_args(&args("--workload all --bogus 1")).is_err());
        assert!(parse_args(&args("--workload all --seconds")).is_err());
    }

    #[test]
    fn result_line_round_trips() {
        let mut g = Gate::default();
        g.op(true, String::new);
        g.op(false, || "x".into());
        let m = [
            Metric::one("wall_s", S, 1.234_567_891_2),
            Metric::one("max_rate_rps", "1/s", 40000.0),
        ];
        let (parsed, ms) = parse_result(&report::result_json(&g, &m)).unwrap();
        assert_eq!((parsed.attempted, parsed.failed), (2, 1));
        assert_eq!(ms, m);
        assert!(parse_result("not a result").is_none());
    }

    #[test]
    fn layers_median_and_catalogue_order() {
        let mut a = Layers::default();
        a.add("core.run_s", 1.0);
        let mut b = Layers::default();
        b.add("core.run_s", 3.0);
        b.add("replay.errors", 0.0);
        let m = Layers::median(&[a.clone(), b, a]).into_metrics();
        assert_eq!(m.len(), PER_LAYER.len());
        assert_eq!(
            m.iter().find(|x| x.name == "core.run_s").unwrap().value,
            1.0
        );
        assert_eq!(m[0].name, PER_LAYER[0].0);
    }
}
