//! The replay farm's sweep engine: fan pure trace×spec replay cells over
//! a scoped thread pool.
//!
//! A sweep cell — "re-price launch L of trace T under spec S" — touches
//! only immutable inputs ([`Trace`] slabs and a [`GpuSpec`]) and produces
//! an owned [`ReplayReport`], so cells are embarrassingly parallel. The
//! unit of work is one launch under a *chunk* of its trace's requested
//! specs, priced in one walk by [`replay_launch_specs`]'s core: each
//! event's addresses are expanded once per unit, not once per cell. The
//! serial path prices every spec of a launch as one unit; with `w`
//! workers each launch's specs split into at most `w` chunks so the pool
//! has work to balance. The engine distributes units over
//! `std::thread::scope` workers (no external dependencies, an atomic
//! work index, per-worker result buffers) and then places every report
//! into its pre-assigned slot, so the output is **bit-identical and
//! deterministically ordered** — ascending `(trace, spec, launch)` — no
//! matter the thread count or the order cells were requested in. The
//! farm harness and the serial ≡ threaded tests pin that invariant.
//!
//! Every cell is priced under an explicit grid spec, so v1 traces (which
//! embed no capture spec) sweep like any other and a farm corpus can mix
//! trace generations. [`SweepCell::report`] is a `Result` so a cell can
//! carry why it was not priced without aborting the rest of the sweep.
//!
//! [`replay_launch_specs`]: crate::replay_launch_specs

use kconv_sim::{GpuSpec, Parallelism};
use kconv_trace::Trace;

use crate::{replay_launch_with, ReplayError, ReplayReport};

/// One completed cell of a sweep: the replay of `trace`'s `launch`-th
/// launch under `spec`, with the indices that place it in the grid.
#[derive(Debug)]
pub struct SweepCell {
    /// Index into the sweep's trace list.
    pub trace: usize,
    /// Index of the launch within that trace.
    pub launch: usize,
    /// Index into the sweep's spec list.
    pub spec: usize,
    /// The re-priced launch, or why this cell could not be priced.
    pub report: Result<ReplayReport, ReplayError>,
}

/// Sweeps the full cartesian product: every launch of every trace under
/// every spec, in ascending `(trace, spec, launch)` order.
///
/// Results are bit-identical across [`Parallelism::Serial`] and any
/// [`Parallelism::Threads`] count.
pub fn sweep(traces: &[Trace], specs: &[GpuSpec], parallelism: Parallelism) -> Vec<SweepCell> {
    let cells: Vec<(usize, usize)> = (0..traces.len())
        .flat_map(|t| (0..specs.len()).map(move |s| (t, s)))
        .collect();
    sweep_cells(traces, specs, &cells, parallelism)
}

/// Sweeps an explicit cell list, where each entry names a
/// `(trace index, spec index)` pair. Duplicates are priced once; the
/// output is canonicalized to ascending `(trace, spec, launch)` order
/// regardless of the order `cells` arrived in, so a shuffled request and
/// a sorted one produce identical output.
///
/// # Panics
///
/// Panics if a cell indexes outside `traces` or `specs` — the farm
/// builds cell lists from the same slices it passes here, so an
/// out-of-range index is a caller bug, not data-dependent input.
pub fn sweep_cells(
    traces: &[Trace],
    specs: &[GpuSpec],
    cells: &[(usize, usize)],
    parallelism: Parallelism,
) -> Vec<SweepCell> {
    let mut work: Vec<(usize, usize)> = cells.to_vec();
    for &(t, s) in &work {
        assert!(t < traces.len(), "cell trace index {t} out of range");
        assert!(s < specs.len(), "cell spec index {s} out of range");
    }
    work.sort_unstable();
    work.dedup();

    // Sorted `work` holds each trace's requested specs as one contiguous
    // run, and the output lists that trace's cells spec-major: run entry
    // `k`, launch `l` lands at `offset + k * launches + l`.
    let workers = parallelism.worker_threads().max(1);
    let mut units = Vec::new();
    let (mut start, mut offset) = (0, 0);
    while start < work.len() {
        let trace = work[start].0;
        let len = work[start..].partition_point(|&(t, _)| t == trace);
        let launches = traces[trace].launches().len();
        let chunk = len.div_ceil(workers);
        for launch in 0..launches {
            for k in (0..len).step_by(chunk) {
                units.push(Unit {
                    trace,
                    launch,
                    specs: start + k..start + len.min(k + chunk),
                    first_slot: offset + k * launches + launch,
                    slot_stride: launches,
                });
            }
        }
        start += len;
        offset += len * launches;
    }

    let price = |unit: &Unit| {
        let specs = work[unit.specs.clone()]
            .iter()
            .map(|&(_, s)| specs[s].clone());
        replay_launch_with(&traces[unit.trace].launches()[unit.launch], specs)
    };

    let priced: Vec<(usize, Vec<ReplayReport>)> = if workers == 1 || units.len() <= 1 {
        units.iter().map(price).enumerate().collect()
    } else {
        // Scoped pool: an atomic cursor hands out unit indices and each
        // worker collects (unit, reports) pairs; the merge below places
        // every report by slot, so output order never depends on
        // scheduling.
        let cursor = std::sync::atomic::AtomicUsize::new(0);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers.min(units.len()))
                .map(|_| {
                    scope.spawn(|| {
                        let mut local = Vec::new();
                        loop {
                            let i = cursor.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                            let Some(unit) = units.get(i) else {
                                break;
                            };
                            local.push((i, price(unit)));
                        }
                        local
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect()
        })
    };

    let mut slots: Vec<Option<SweepCell>> = (0..offset).map(|_| None).collect();
    for (i, reports) in priced {
        let unit = &units[i];
        for (k, report) in reports.into_iter().enumerate() {
            let slot = unit.first_slot + k * unit.slot_stride;
            debug_assert!(slots[slot].is_none());
            slots[slot] = Some(SweepCell {
                trace: unit.trace,
                launch: unit.launch,
                spec: work[unit.specs.start + k].1,
                report: Ok(report),
            });
        }
    }
    slots
        .into_iter()
        .map(|c| c.expect("every cell priced exactly once"))
        .collect()
}

/// One unit of sweep work: a launch priced under a chunk of its trace's
/// requested specs (a range into the canonical cell list).
struct Unit {
    trace: usize,
    launch: usize,
    specs: std::ops::Range<usize>,
    /// Output slot of the chunk's first spec; each further spec is
    /// `slot_stride` (the trace's launch count) later.
    first_slot: usize,
    slot_stride: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TargetSpec;
    use kconv_sim::{lane_addrs, BankWidth, Gpu, LaneMask, LaunchConfig, SimMode};
    use kconv_trace::{SharedBuffer, TraceWriter};

    /// Captures a small two-block launch touching GM + SM + CM.
    fn capture(seed: u64) -> Trace {
        capture_launches(seed, 1)
    }

    /// Captures `launches` back-to-back launches of [`capture`]'s kernel
    /// into one trace.
    fn capture_launches(seed: u64, launches: usize) -> Trace {
        let mut gpu = Gpu::new(GpuSpec::kepler_k40m());
        let src = gpu.alloc_f32(256).unwrap();
        gpu.upload_f32(src, &vec![1.0; 256]).unwrap();
        gpu.write_const_f32(0, &[2.0; 32]).unwrap();
        let buf = SharedBuffer::new();
        gpu.set_trace_sink(Some(Box::new(TraceWriter::new(buf.clone()))));
        let cfg = LaunchConfig::new("farm-cell", 2, 64).with_smem(2048);
        for _ in 0..launches {
            gpu.launch(&cfg, SimMode::Full, |blk| {
                let id = blk.dims.block_id as u64;
                blk.each_warp(|w| {
                    let a = lane_addrs(src.f32_addr((seed % 2) * 32 + id * 64), 4);
                    let x = w.ld_global::<1>(&a, LaneMask::ALL);
                    let s = lane_addrs(w.warp_id() as u64 * 128, 4);
                    w.st_shared::<1>(&s, &x, LaneMask::ALL);
                    let _ = w.ld_const(
                        &kconv_sim::lane_addrs_uniform(4 * (seed % 8)),
                        LaneMask::ALL,
                    );
                });
                blk.sync();
            })
            .unwrap();
        }
        gpu.set_trace_sink(None);
        Trace::decode(&buf.take()).unwrap()
    }

    fn grid() -> Vec<GpuSpec> {
        GpuSpec::kepler_k40m()
            .grid()
            .bank_widths(&[BankWidth::B4, BankWidth::B8])
            .line_sizes(&[64, 128])
            .build()
            .unwrap()
    }

    /// xorshift for the shuffle — deterministic, dependency-free.
    fn shuffle<T>(items: &mut [T], mut state: u64) {
        for i in (1..items.len()).rev() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            items.swap(i, (state % (i as u64 + 1)) as usize);
        }
    }

    /// Re-sweeps `cells` in shuffled orders on 2, 3 and 7 workers; every
    /// run must equal the serial `baseline` bit for bit, in order.
    fn assert_shuffled_threaded_sweeps_match(
        traces: &[Trace],
        specs: &[GpuSpec],
        cells: &mut [(usize, usize)],
        baseline: &[SweepCell],
    ) {
        for threads in [2, 3, 7] {
            for shuffle_seed in [1u64, 99] {
                shuffle(cells, shuffle_seed * 7 + threads as u64);
                let got = sweep_cells(traces, specs, cells, Parallelism::Threads(threads));
                assert_eq!(got.len(), baseline.len(), "threads {threads}");
                for (g, b) in got.iter().zip(baseline) {
                    assert_eq!(
                        (g.trace, g.spec, g.launch),
                        (b.trace, b.spec, b.launch),
                        "threads {threads}"
                    );
                    assert_eq!(
                        g.report.as_ref().unwrap(),
                        b.report.as_ref().unwrap(),
                        "threads {threads}"
                    );
                }
            }
        }
    }

    #[test]
    fn serial_and_threaded_sweeps_are_bit_identical_under_shuffled_cells() {
        let traces = vec![capture(0), capture(1), capture(2)];
        let specs = grid();
        let mut cells: Vec<(usize, usize)> = (0..traces.len())
            .flat_map(|t| (0..specs.len()).map(move |s| (t, s)))
            .collect();
        let baseline = sweep(&traces, &specs, Parallelism::Serial);
        assert_eq!(baseline.len(), traces.len() * specs.len());
        // Canonical order: ascending (trace, spec, launch).
        for (i, cell) in baseline.iter().enumerate() {
            assert_eq!(cell.trace, i / specs.len());
            assert_eq!(cell.spec, i % specs.len());
            assert_eq!(cell.launch, 0);
        }
        assert_shuffled_threaded_sweeps_match(&traces, &specs, &mut cells, &baseline);
    }

    /// Each trace requests a different subset of the specs, so the
    /// per-trace runs, chunk boundaries and slot offsets all differ; any
    /// thread count must still reproduce the serial sweep bit for bit,
    /// and every cell must equal the one-spec replay of its launch.
    #[test]
    fn spec_subsets_per_trace_are_thread_count_invariant() {
        let traces = vec![
            capture(0),
            capture_launches(1, 3),
            capture(2),
            capture_launches(3, 2),
        ];
        let specs = grid();
        let subsets: [&[usize]; 4] = [&[0, 1, 2, 3], &[2, 0, 3], &[1], &[]];
        let mut cells: Vec<(usize, usize)> = subsets
            .iter()
            .enumerate()
            .flat_map(|(t, subset)| subset.iter().map(move |&s| (t, s)))
            .collect();
        let baseline = sweep_cells(&traces, &specs, &cells, Parallelism::Serial);
        let mut want: Vec<(usize, usize, usize)> = cells
            .iter()
            .flat_map(|&(t, s)| (0..traces[t].launches().len()).map(move |l| (t, s, l)))
            .collect();
        want.sort_unstable();
        assert_eq!(
            baseline
                .iter()
                .map(|c| (c.trace, c.spec, c.launch))
                .collect::<Vec<_>>(),
            want
        );
        for cell in &baseline {
            let launch = &traces[cell.trace].launches()[cell.launch];
            let single = crate::replay_launch(launch, &TargetSpec::Spec(specs[cell.spec].clone()));
            assert_eq!(cell.report.as_ref().unwrap(), &single.unwrap());
        }
        assert_shuffled_threaded_sweeps_match(&traces, &specs, &mut cells, &baseline);
    }

    #[test]
    fn duplicate_cells_price_once() {
        let traces = vec![capture(0)];
        let specs = grid();
        let got = sweep_cells(
            &traces,
            &specs,
            &[(0, 1), (0, 1), (0, 0), (0, 1)],
            Parallelism::Serial,
        );
        assert_eq!(got.len(), 2);
        assert_eq!((got[0].trace, got[0].spec), (0, 0));
        assert_eq!((got[1].trace, got[1].spec), (0, 1));
    }

    #[test]
    fn sweep_matches_direct_replay() {
        let traces = vec![capture(4)];
        let specs = GpuSpec::presets_all();
        let cells = sweep(&traces, &specs, Parallelism::Threads(2));
        for cell in &cells {
            let direct = crate::replay_decoded(
                &traces[cell.trace],
                &TargetSpec::Spec(specs[cell.spec].clone()),
            )
            .unwrap();
            assert_eq!(cell.report.as_ref().unwrap(), &direct[cell.launch]);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_cells_panic() {
        let traces = vec![capture(0)];
        let specs = grid();
        sweep_cells(&traces, &specs, &[(1, 0)], Parallelism::Serial);
    }
}
