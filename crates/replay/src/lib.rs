//! # kconv-replay — re-price captured kernel traces under any [`GpuSpec`]
//!
//! The paper's central observation is that memory cost is a function of
//! *addresses* and *architecture*, not of kernel code: the same warp
//! access pattern that runs conflict-free on Fermi's 4-byte shared-memory
//! banks wastes half the SM bandwidth on Kepler's 8-byte banks (the
//! bank-width mismatch factor, eq. 1). A KTRC v2+ trace records exactly
//! the address side of that function — per-lane byte addresses, live
//! masks and lane widths for every warp memory instruction — so the cost
//! side can be recomputed offline for an architecture the kernel never
//! ran on.
//!
//! [`replay`] is that recomputation. It consumes a binary trace and a
//! [`TargetSpec`], re-derives every architecture-dependent counter
//! (global-memory coalesced transactions, read-only-cache residency,
//! shared-memory bank-conflict replay cycles, constant-cache
//! serialization and misses) from the recorded addresses using the *same*
//! pricing functions the live simulator charges with
//! ([`kconv_sim::pricing`]), and re-runs the timing model on the result.
//! Replaying a trace under its own capture spec therefore reproduces the
//! live launch's [`KernelStats`] bit for bit — the differential gate the
//! `trace_report` harness and CI enforce — while replaying under a
//! different spec answers the what-if question directly: *what would this
//! exact kernel execution have cost on that machine?*
//!
//! What is recomputable from the trace alone and what is not:
//!
//! * **Recomputed per event**: GM transactions/bus bytes (coalescing is
//!   `segment_count` over addresses), read-only-cache hits vs misses
//!   (FIFO residency per block), SM conflict cycles/broadcasts (bank
//!   math over addresses), CM serialization/misses (distinct words and
//!   first-touch lines). These may all legitimately differ from the
//!   values recorded in the trace events when the target spec differs
//!   from the capture spec.
//! * **Grafted from the launch-end record** (architecture-independent,
//!   not re-derivable from memory events): `fma_lane_ops`,
//!   `alu_lane_ops`, `barriers`.
//! * **Reconstructed from the header**: launch geometry and resource
//!   declaration, which feed occupancy and the timing model; sampled
//!   launches are re-scaled with the same round-to-nearest rule the
//!   live launcher uses.
//!
//! The crate is a **batch facility**, fast in both loops. Inner loop:
//! [`Trace::decode`] parses the byte stream once into compact slabs
//! (most events as an affine `(base, stride)` pair, see
//! [`kconv_trace::decoded`]), and [`replay_launch_specs`] prices one
//! decoded launch under a whole slice of specs in a single walk. Each
//! memory [`Space`] reads only a few spec fields (shared memory the bank
//! count and width, global loads the line size and read-only capacity,
//! global stores the store line, constant memory the constant line), so
//! the walk keeps one pricer per distinct key of each space and charges
//! each event only to its own space's pricers; each spec's report is then
//! summed from its pricers and timed under the full spec. An N-spec sweep
//! therefore pays the varint decoder and the address expansion once per
//! event, and the pricing once per distinct key ([`pricing_groups`]), not
//! once per spec. [`replay_launch`], [`replay_decoded`],
//! [`replay_decoded_specs`] and the decode-once [`replay`] wrapper are
//! all built on that one walk. Outer loop: the [`farm`] module fans whole
//! launches over a scoped thread pool with deterministic,
//! thread-count-invariant output.
//!
//! ```
//! use kconv_replay::{replay, TargetSpec};
//! use kconv_sim::{lane_addrs, Gpu, GpuSpec, LaneMask, LaunchConfig, SimMode};
//! use kconv_trace::{SharedBuffer, TraceWriter};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut gpu = Gpu::new(GpuSpec::kepler_k40m());
//! let src = gpu.alloc_f32(32)?;
//! gpu.upload_f32(src, &[1.0; 32])?;
//! let buf = SharedBuffer::new();
//! gpu.set_trace_sink(Some(Box::new(TraceWriter::new(buf.clone()))));
//! let report = gpu.launch(&LaunchConfig::new("read", 1, 32), SimMode::Full, |blk| {
//!     blk.each_warp(|w| {
//!         w.ld_global::<1>(&lane_addrs(src.f32_addr(0), 4), LaneMask::ALL);
//!     });
//! })?;
//! gpu.set_trace_sink(None);
//!
//! // Under the capture spec the replay is bit-identical to the live run.
//! let replayed = replay(&buf.take(), &TargetSpec::Capture)?;
//! assert_eq!(replayed[0].stats, report.stats);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod farm;

use std::collections::HashSet;

use kconv_sim::pricing::{
    bank_conflict_cycles, for_each_unit, ro_capacity_lines, segment_count, RoCache,
};
use kconv_sim::{
    timing, BankWidth, GpuSpec, KernelStats, LaneMask, LaunchConfig, Timing, TraceOp, WarpAddrs,
};
use kconv_trace::LaunchHeader;

pub use farm::{sweep, sweep_cells, SweepCell};
pub use kconv_trace::{DecodedLaunch, Trace, TraceError};

/// Which architecture to price the replay under.
#[derive(Debug, Clone)]
pub enum TargetSpec {
    /// The spec embedded in each launch header (KTRC v2). Replaying a v2
    /// trace this way reproduces the live counters bit-exactly; v1 traces
    /// carry no spec and fail with [`ReplayError::MissingCaptureSpec`].
    Capture,
    /// An explicit spec — the what-if case, and the only way to replay a
    /// v1 trace (`--assume-spec` in the CLIs).
    Spec(GpuSpec),
}

/// Errors from [`replay`].
#[derive(Debug)]
pub enum ReplayError {
    /// The trace bytes could not be parsed.
    Trace(TraceError),
    /// [`TargetSpec::Capture`] was requested but a launch header carries
    /// no embedded spec (a v1 trace).
    MissingCaptureSpec {
        /// Kernel name of the offending launch.
        kernel: String,
    },
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplayError::Trace(e) => write!(f, "replay: {e}"),
            ReplayError::MissingCaptureSpec { kernel } => write!(
                f,
                "replay: launch '{kernel}' has no embedded capture spec (v1 trace); \
                 pass an explicit target spec (--assume-spec)"
            ),
        }
    }
}

impl std::error::Error for ReplayError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ReplayError::Trace(e) => Some(e),
            ReplayError::MissingCaptureSpec { .. } => None,
        }
    }
}

impl From<TraceError> for ReplayError {
    fn from(e: TraceError) -> Self {
        ReplayError::Trace(e)
    }
}

/// Replayed totals for one [`TraceOp`] kind (unscaled: the events actually
/// present in the trace, before any sampled-launch extrapolation).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpCost {
    /// Warp instructions of this kind.
    pub events: u64,
    /// Active lanes summed over those instructions.
    pub lane_accesses: u64,
    /// Bytes the active lanes requested (`mask.count() * lane_bytes`).
    /// Spec-independent: a sweep over target specs must leave this fixed.
    pub useful_bytes: u64,
    /// Re-priced global-memory bus transactions (0 for SM/CM ops).
    pub transactions: u64,
    /// Re-priced SM/CM pipeline cycles (0 for GM ops).
    pub cycles: u64,
}

/// One launch of a trace, re-priced under a target architecture.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayReport {
    /// Kernel name from the launch header.
    pub kernel: String,
    /// Blocks the captured grid logically contained.
    pub grid_blocks: u64,
    /// Blocks whose events are in the trace (fewer when sampled).
    pub executed_blocks: u64,
    /// The spec embedded in the launch header (`None` for v1 traces).
    pub capture_spec: Option<GpuSpec>,
    /// The spec this replay was priced under.
    pub target_spec: GpuSpec,
    /// Re-priced counters for the full grid — scaled with the live
    /// launcher's rule when the capture was sampled. Under the capture
    /// spec these equal the live launch's stats bit for bit.
    pub stats: KernelStats,
    /// Unscaled per-op totals, indexed by [`TraceOp::index`].
    pub per_op: [OpCost; TraceOp::COUNT],
    /// Timing-model evaluation of `stats` under the target spec. `None`
    /// for aborted launches or when the launch cannot run on the target
    /// (see `timing_error`).
    pub timing: Option<Timing>,
    /// Why the timing model could not run (e.g. the captured block shape
    /// exceeds the target's occupancy limits), if it could not.
    pub timing_error: Option<String>,
    /// Whether the capture aborted (faulted launch / truncated trace) —
    /// the stats then cover only the clean prefix of blocks, unscaled.
    pub aborted: bool,
}

impl ReplayReport {
    /// Replayed totals for one op kind.
    pub fn op(&self, op: TraceOp) -> &OpCost {
        &self.per_op[op.index()]
    }

    /// Total shared-memory pipeline cycles (loads + stores, replays
    /// included) of the full-grid stats.
    pub fn sm_cycles(&self) -> u64 {
        self.stats.sm_ld_cycles + self.stats.sm_st_cycles
    }

    /// Shared-memory bandwidth waste: bytes the SM pipeline *moved*
    /// (cycles × full bank-row width) per byte the lanes *requested*.
    /// 1.0 is a perfectly matched access pattern; the paper's bank-width
    /// mismatch inflates this by exactly the mismatch factor `n` (eq. 1).
    /// 0.0 when the launch touched no shared memory.
    pub fn sm_waste(&self) -> f64 {
        if self.stats.sm_bytes_useful == 0 {
            return 0.0;
        }
        (self.sm_cycles() * self.target_spec.smem_bytes_per_cycle()) as f64
            / self.stats.sm_bytes_useful as f64
    }

    /// Total re-priced global-memory bus transactions (loads + stores).
    pub fn gm_transactions(&self) -> u64 {
        self.stats.gm_ld_transactions + self.stats.gm_st_transactions
    }
}

/// The memory space an op's pricing charges. Each space's pricing reads
/// its own [`GpuSpec`] fields and nothing else (see [`pricing_groups`]),
/// so specs that agree on those fields price that space's events
/// identically and share one pricer in the replay walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Space {
    /// Shared memory (`SmLd`, `SmSt`): bank count and bank width.
    Sm,
    /// Global-memory loads, plain and read-only path (`GmLd`, `GmLdRo`):
    /// load line size and read-only cache capacity.
    GmLoad,
    /// Global-memory stores (`GmSt`): store transaction size.
    GmStore,
    /// Constant memory (`CmLd`): constant-cache line size.
    Cm,
    /// Barrier arrivals (`Bar`): no spec field, so one pricer serves any
    /// set of specs.
    Bar,
}

impl Space {
    /// Number of spaces (array-index bound for per-space tables).
    pub const COUNT: usize = 5;

    /// All spaces, in index order.
    pub const ALL: [Space; Space::COUNT] = [
        Space::Sm,
        Space::GmLoad,
        Space::GmStore,
        Space::Cm,
        Space::Bar,
    ];

    /// The space whose pricing charges `op`.
    pub fn of(op: TraceOp) -> Space {
        match op {
            TraceOp::SmLd | TraceOp::SmSt => Space::Sm,
            TraceOp::GmLd | TraceOp::GmLdRo => Space::GmLoad,
            TraceOp::GmSt => Space::GmStore,
            TraceOp::CmLd => Space::Cm,
            TraceOp::Bar => Space::Bar,
        }
    }

    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            Space::Sm => "SM",
            Space::GmLoad => "GM-load",
            Space::GmStore => "GM-store",
            Space::Cm => "CM",
            Space::Bar => "Bar",
        }
    }
}

/// The spec fields one space's pricing reads: the grouping key of the
/// replay walk's pricers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PricingKey {
    Sm {
        banks: u32,
        width: BankWidth,
    },
    GmLoad {
        line_bytes: u64,
        ro_cache_bytes: u64,
    },
    GmStore {
        line_bytes: u64,
    },
    Cm {
        line_bytes: u64,
    },
    Bar,
}

impl PricingKey {
    fn space(self) -> Space {
        match self {
            PricingKey::Sm { .. } => Space::Sm,
            PricingKey::GmLoad { .. } => Space::GmLoad,
            PricingKey::GmStore { .. } => Space::GmStore,
            PricingKey::Cm { .. } => Space::Cm,
            PricingKey::Bar => Space::Bar,
        }
    }
}

/// Sorts every [`GpuSpec`] field into the space whose pricing reads it, or
/// into timing-only, and returns the spec's key per space (indexed by
/// `Space as usize`). The destructuring names every field, with no `..`:
/// a new spec field fails to compile here until someone classifies it, so
/// a pricing key can never miss a field its pricing reads.
fn pricing_keys(spec: &GpuSpec) -> [PricingKey; Space::COUNT] {
    let GpuSpec {
        smem_banks,
        bank_width,
        gm_transaction_bytes,
        ro_cache_bytes,
        gm_store_transaction_bytes,
        cm_line_bytes,
        // Timing-only (or, like `name`, descriptive): read by
        // `timing::evaluate`, never by event pricing.
        name: _,
        sm_count: _,
        cores_per_sm: _,
        clock_ghz: _,
        smem_bytes_per_sm: _,
        max_threads_per_sm: _,
        max_blocks_per_sm: _,
        regs_per_sm: _,
        max_smem_per_block: _,
        gm_bandwidth_gbs: _,
        cm_bytes: _,
        latency_hiding_warps: _,
        issue_efficiency: _,
    } = *spec;
    [
        PricingKey::Sm {
            banks: smem_banks,
            width: bank_width,
        },
        PricingKey::GmLoad {
            line_bytes: gm_transaction_bytes,
            ro_cache_bytes,
        },
        PricingKey::GmStore {
            line_bytes: gm_store_transaction_bytes,
        },
        PricingKey::Cm {
            line_bytes: cm_line_bytes,
        },
        PricingKey::Bar,
    ]
}

/// Which pricers a list of specs needs: one per distinct key per space.
struct PricingPlan {
    /// Distinct keys per space, in first-seen order.
    keys: [Vec<PricingKey>; Space::COUNT],
    /// Per spec, the index of its key in each space's list.
    slots: Vec<[usize; Space::COUNT]>,
}

impl PricingPlan {
    fn new<'a>(specs: impl IntoIterator<Item = &'a GpuSpec>) -> Self {
        let mut keys: [Vec<PricingKey>; Space::COUNT] = Default::default();
        let slots = specs
            .into_iter()
            .map(|spec| {
                let spec_keys = pricing_keys(spec);
                std::array::from_fn(|space| {
                    let group = &mut keys[space];
                    let key = spec_keys[space];
                    group.iter().position(|k| *k == key).unwrap_or_else(|| {
                        group.push(key);
                        group.len() - 1
                    })
                })
            })
            .collect();
        PricingPlan { keys, slots }
    }
}

/// Distinct pricing keys per space (indexed by `Space as usize`) that
/// replaying under `specs` needs: the number of pricers each event of that
/// space is charged to. A launch priced under all of `specs` costs, per
/// event, this many pricings instead of `specs.len()`.
pub fn pricing_groups(specs: &[GpuSpec]) -> [usize; Space::COUNT] {
    PricingPlan::new(specs).keys.map(|group| group.len())
}

/// The pricing core: one space of one launch being re-priced under one
/// [`PricingKey`] (block_begin → event). It charges only its space's
/// counters and per-op rows, so the pricers of one spec touch disjoint
/// fields and sum into that spec's stats.
struct Pricer {
    key: PricingKey,
    stats: KernelStats,
    per_op: [OpCost; TraceOp::COUNT],
    /// `GmLoad` only: the per-block read-only (texture) cache, fresh at
    /// each `block_begin` — the same reset discipline as the live
    /// simulator.
    ro: RoCache,
    /// `Cm` only: launch-scoped constant-cache residency, the lines
    /// (address ÷ line bytes) touched so far. The live model never evicts
    /// within a launch, so a `HashSet` reproduces its miss count exactly.
    cm_lines: HashSet<u64>,
}

impl Pricer {
    fn new(key: PricingKey) -> Self {
        Pricer {
            key,
            stats: KernelStats::default(),
            per_op: [OpCost::default(); TraceOp::COUNT],
            ro: RoCache::new(0),
            cm_lines: HashSet::new(),
        }
    }

    fn block_begin(&mut self) {
        // The read-only cache is per-SM, per-block residency in the live
        // model: fresh for every block.
        if let PricingKey::GmLoad {
            line_bytes,
            ro_cache_bytes,
        } = self.key
        {
            self.ro = RoCache::new(ro_capacity_lines(ro_cache_bytes, line_bytes));
        }
    }

    /// Re-prices one event of this pricer's space, updating the stats
    /// exactly the way the live memory models charge their counters
    /// (`GmPlane`, `SharedMemory`, `CmPlane` in `kconv-sim`).
    fn event(&mut self, op: TraceOp, mask: LaneMask, lane_bytes: u32, addrs: &WarpAddrs) {
        let (tx, cycles) = self.price(op, mask, lane_bytes, addrs);
        let t = &mut self.per_op[op.index()];
        t.events += 1;
        t.lane_accesses += u64::from(mask.count());
        t.useful_bytes += u64::from(mask.count()) * u64::from(lane_bytes);
        t.transactions += tx;
        t.cycles += cycles;
    }

    /// Returns the (transactions, cycles) pair for the per-op table.
    fn price(
        &mut self,
        op: TraceOp,
        mask: LaneMask,
        lane_bytes: u32,
        addrs: &WarpAddrs,
    ) -> (u64, u64) {
        debug_assert_eq!(
            self.key.space(),
            Space::of(op),
            "{op} routed to the wrong space"
        );
        let stats = &mut self.stats;
        let ro = &mut self.ro;
        let cm_lines = &mut self.cm_lines;
        let width = u64::from(lane_bytes);
        let useful = u64::from(mask.count()) * width;
        match self.key {
            PricingKey::GmLoad {
                line_bytes: seg, ..
            } if op == TraceOp::GmLdRo => {
                let mut misses = 0u64;
                for_each_unit(addrs, width, mask, seg, |line, first_visit| {
                    if first_visit {
                        if ro.touch(line) {
                            stats.gm_ro_hits += 1;
                        } else {
                            misses += 1;
                        }
                    }
                });
                stats.gm_ld_requests += 1;
                stats.gm_ld_transactions += misses;
                stats.gm_ld_bytes_bus += misses * seg;
                stats.gm_ld_bytes_useful += useful;
                (misses, 0)
            }
            PricingKey::GmLoad {
                line_bytes: seg, ..
            } => {
                let segs = segment_count(addrs, width, mask, seg);
                stats.gm_ld_requests += 1;
                stats.gm_ld_transactions += segs;
                stats.gm_ld_bytes_bus += segs * seg;
                stats.gm_ld_bytes_useful += useful;
                (segs, 0)
            }
            PricingKey::GmStore { line_bytes: seg } => {
                let segs = segment_count(addrs, width, mask, seg);
                stats.gm_st_requests += 1;
                stats.gm_st_transactions += segs;
                stats.gm_st_bytes_bus += segs * seg;
                stats.gm_st_bytes_useful += useful;
                (segs, 0)
            }
            PricingKey::Sm { banks, width: bank } => {
                let out = bank_conflict_cycles(addrs, width, mask, banks, bank);
                if op == TraceOp::SmLd {
                    stats.sm_ld_requests += 1;
                    stats.sm_ld_cycles += out.cycles;
                } else {
                    stats.sm_st_requests += 1;
                    stats.sm_st_cycles += out.cycles;
                }
                stats.sm_bytes_useful += useful;
                stats.sm_broadcasts += u64::from(out.broadcast);
                stats.sm_conflict_histogram[KernelStats::conflict_bucket(out.cycles)] += 1;
                (0, out.cycles)
            }
            PricingKey::Cm { line_bytes } => {
                // The live model dedups at word (not lane-width)
                // granularity and counts a first-touched line as a miss.
                // Distinct counting runs on the dispatched lane backend;
                // line touching is an idempotent set insert, deduped to
                // distinct lines before probing the set. The dominant
                // constant-memory pattern is a fully-uniform broadcast,
                // which one lane-engine bounds pass resolves to one
                // distinct address and one probe — not thirty-two.
                let mut touch = |line: u64| {
                    if cm_lines.insert(line) {
                        stats.cm_misses += 1;
                    }
                };
                let distinct = match kconv_sim::mem::lanes::unit_bounds(addrs, 1, mask, 1) {
                    None => 0,
                    Some((lo, hi)) if lo == hi => {
                        touch(lo / line_bytes);
                        1
                    }
                    Some(_) => {
                        let distinct = segment_count(addrs, 1, mask, 1);
                        if line_bytes.is_power_of_two() {
                            for_each_unit(addrs, 1, mask, line_bytes, |line, first_visit| {
                                if first_visit {
                                    touch(line);
                                }
                            });
                        } else {
                            for_each_unit(addrs, 1, mask, 1, |a, first_visit| {
                                if first_visit {
                                    touch(a / line_bytes);
                                }
                            });
                        }
                        distinct
                    }
                };
                let cycles = distinct.saturating_sub(1);
                stats.cm_requests += 1;
                stats.cm_cycles += cycles;
                (0, cycles)
            }
            // Barrier arrivals touch no memory and are
            // architecture-independent: the counters come from the
            // launch-end graft, so repricing charges nothing here.
            PricingKey::Bar => (0, 0),
        }
    }
}

/// Assembles one spec's report from its launch-wide pieces: the summed
/// stats of its pricers, the per-op table, and the launch's end record.
fn finish(
    launch: &DecodedLaunch,
    cfg: &LaunchConfig,
    spec: &GpuSpec,
    mut stats: KernelStats,
    per_op: [OpCost; TraceOp::COUNT],
) -> ReplayReport {
    let header = &launch.header;
    let end = &launch.end;
    let grid = header.grid_blocks;
    let executed = stats.blocks_executed;
    if end.aborted {
        // A faulted capture has no final live stats: report the clean
        // prefix as-is, unscaled.
        stats.blocks_total = grid;
    } else if executed == grid {
        stats.blocks_total = grid;
    } else {
        // Sampled capture: extrapolate with the live launcher's
        // round-to-nearest rule.
        stats = stats.scaled_to_blocks(grid, executed.max(1));
    }
    // Arithmetic and barrier counts are not memory events — graft them
    // from the (already scaled) launch-end stats. v1 ends carry only the
    // FMA count.
    if let Some(live) = &end.stats {
        stats.fma_lane_ops = live.fma_lane_ops;
        stats.alu_lane_ops = live.alu_lane_ops;
        stats.barriers = live.barriers;
        stats.bar_syncs = live.bar_syncs;
    } else {
        stats.fma_lane_ops = end.fma_lane_ops;
    }
    let (timing, timing_error) = if end.aborted {
        (None, None)
    } else {
        match timing::evaluate(spec, cfg, &stats) {
            Ok(t) => (Some(t), None),
            Err(e) => (None, Some(e.to_string())),
        }
    };
    ReplayReport {
        kernel: header.kernel.clone(),
        grid_blocks: grid,
        executed_blocks: executed,
        capture_spec: header.spec.clone(),
        target_spec: spec.clone(),
        stats,
        per_op,
        timing,
        timing_error,
        aborted: end.aborted,
    }
}

/// Resolves the pricing spec for one launch header under `target`.
fn resolve_spec(header: &LaunchHeader, target: &TargetSpec) -> Result<GpuSpec, ReplayError> {
    match target {
        TargetSpec::Spec(s) => Ok(s.clone()),
        TargetSpec::Capture => header
            .spec
            .clone()
            .ok_or_else(|| ReplayError::MissingCaptureSpec {
                kernel: header.kernel.clone(),
            }),
    }
}

/// Re-prices every launch in a binary KTRC trace under `target`, decoding
/// the byte stream **once** into a [`Trace`] and replaying the in-memory
/// form. Re-pricing the same capture under many specs should decode once
/// with [`Trace::decode`] and call [`replay_decoded_specs`] instead.
///
/// # Errors
///
/// [`ReplayError::Trace`] when the bytes are not a well-formed trace;
/// [`ReplayError::MissingCaptureSpec`] when `target` is
/// [`TargetSpec::Capture`] and a launch header has no embedded spec (v1).
pub fn replay(bytes: &[u8], target: &TargetSpec) -> Result<Vec<ReplayReport>, ReplayError> {
    let trace = Trace::decode(bytes)?;
    replay_decoded(&trace, target)
}

/// Re-prices every launch of an already-decoded [`Trace`] under `target`.
/// To price many specs, [`replay_decoded_specs`] walks each launch once
/// for all of them.
///
/// # Errors
///
/// [`ReplayError::MissingCaptureSpec`] as in [`replay`] (the trace itself
/// is already parsed, so no [`ReplayError::Trace`]).
pub fn replay_decoded(
    trace: &Trace,
    target: &TargetSpec,
) -> Result<Vec<ReplayReport>, ReplayError> {
    trace
        .launches()
        .iter()
        .map(|launch| replay_launch(launch, target))
        .collect()
}

/// Re-prices every launch of an already-decoded [`Trace`] under each of
/// `specs` in one walk per launch. The result is indexed `[spec][launch]`:
/// row `i` equals `replay_decoded(trace, &TargetSpec::Spec(specs[i]))`.
pub fn replay_decoded_specs(trace: &Trace, specs: &[GpuSpec]) -> Vec<Vec<ReplayReport>> {
    let mut rows: Vec<Vec<ReplayReport>> = specs
        .iter()
        .map(|_| Vec::with_capacity(trace.launches().len()))
        .collect();
    for launch in trace.launches() {
        for (row, report) in rows.iter_mut().zip(replay_launch_specs(launch, specs)) {
            row.push(report);
        }
    }
    rows
}

/// Re-prices one decoded launch under `target`: the one-spec case of
/// [`replay_launch_specs`].
///
/// # Errors
///
/// [`ReplayError::MissingCaptureSpec`] when `target` is
/// [`TargetSpec::Capture`] and the launch header has no embedded spec.
pub fn replay_launch(
    launch: &DecodedLaunch,
    target: &TargetSpec,
) -> Result<ReplayReport, ReplayError> {
    let spec = resolve_spec(&launch.header, target)?;
    Ok(replay_launch_with(launch, [&spec]).remove(0))
}

/// Re-prices one decoded launch under every spec of `specs` in a single
/// walk over its slabs. Each event's lane addresses are expanded once and
/// priced once per distinct [`pricing_groups`] key of its space, not once
/// per spec. Report `i` is bit-identical to
/// `replay_launch(launch, &TargetSpec::Spec(specs[i].clone()))`.
pub fn replay_launch_specs(launch: &DecodedLaunch, specs: &[GpuSpec]) -> Vec<ReplayReport> {
    replay_launch_with(launch, specs)
}

/// The one pricing walk behind every replay entry point: one [`Pricer`]
/// per distinct key per space, each event routed only to its space's
/// pricers, then each spec's report summed from its own pricers.
fn replay_launch_with<'a>(
    launch: &DecodedLaunch,
    specs: impl IntoIterator<Item = &'a GpuSpec>,
) -> Vec<ReplayReport> {
    let specs: Vec<&GpuSpec> = specs.into_iter().collect();
    let PricingPlan { keys, slots } = PricingPlan::new(specs.iter().copied());
    let mut groups: [Vec<Pricer>; Space::COUNT] =
        keys.map(|group| group.into_iter().map(Pricer::new).collect());
    let mut blocks = 0u64;
    for block in launch.blocks() {
        blocks += 1;
        for pricer in &mut groups[Space::GmLoad as usize] {
            pricer.block_begin();
        }
        block.for_each_event(|head, addrs| {
            for pricer in &mut groups[Space::of(head.op) as usize] {
                pricer.event(head.op, head.mask, head.lane_bytes, addrs);
            }
        });
    }

    let header = &launch.header;
    let cfg = LaunchConfig {
        name: header.kernel.clone(),
        blocks: header.grid_blocks as usize,
        threads_per_block: header.threads_per_block as usize,
        smem_bytes: header.smem_bytes as u32,
        regs_per_thread: header.regs_per_thread as u32,
        overlap: header.overlap,
    };
    specs
        .into_iter()
        .zip(slots)
        .map(|(spec, slot)| {
            let pricer = |space: Space| &groups[space as usize][slot[space as usize]];
            let mut stats = KernelStats {
                blocks_executed: blocks,
                ..KernelStats::default()
            };
            for space in Space::ALL {
                stats.merge(&pricer(space).stats);
            }
            let per_op = std::array::from_fn(|i| pricer(Space::of(TraceOp::ALL[i])).per_op[i]);
            finish(launch, &cfg, spec, stats, per_op)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use kconv_sim::{
        lane_addrs, lane_addrs_uniform, BankWidth, Gpu, KernelStats, LaneMask, LaunchConfig,
        LaunchReport, OverlapMode, Parallelism, SimMode, TraceEvent, TraceLaunch, TraceSink,
        WARP_SIZE,
    };
    use kconv_trace::varint::{write_u64, zigzag};
    use kconv_trace::{SharedBuffer, TraceWriter, MAGIC, V1};

    /// A kernel exercising every traced op: plain/read-only/store global
    /// traffic, matched and mismatched shared-memory patterns, divergent
    /// constant reads, FMAs and barriers.
    fn all_ops_launch(parallelism: Parallelism, mode: SimMode) -> (LaunchReport, Vec<u8>) {
        let mut gpu = Gpu::new(GpuSpec::kepler_k40m()).with_parallelism(parallelism);
        let src = gpu.alloc_f32(1024).unwrap();
        let dst = gpu.alloc_f32(1024).unwrap();
        let vals: Vec<f32> = (0..1024).map(|i| i as f32 * 0.5).collect();
        gpu.upload_f32(src, &vals).unwrap();
        gpu.write_const_f32(0, &[2.0; 64]).unwrap();
        let buf = SharedBuffer::new();
        gpu.set_trace_sink(Some(Box::new(TraceWriter::new(buf.clone()))));
        let cfg = LaunchConfig::new("all-ops", 6, 64)
            .with_smem(4096)
            .with_regs(40);
        let report = gpu
            .launch(&cfg, mode, |blk| {
                let id = blk.dims.block_id as u64;
                blk.each_warp(|w| {
                    let wid = w.warp_id() as u64;
                    let g = lane_addrs(src.f32_addr((id * 64 + wid * 32) % 512), 4);
                    let x = w.ld_global::<1>(&g, LaneMask::ALL);
                    // Read-only path with block overlap: the second warp
                    // re-touches lines the first warp cached.
                    let r = lane_addrs(src.f32_addr((id % 4) * 64), 8);
                    let y = w.ld_global_ro::<2>(&r, LaneMask::first(20));
                    let c = w.ld_const(&lane_addrs_uniform(4 * (id % 16)), LaneMask::ALL);
                    // Unvectorized float store: stride 4 B — conflict-free
                    // on 4 B banks, half-bandwidth on Kepler's 8 B banks.
                    let s4 = lane_addrs(wid * 512, 4);
                    let v: [[f32; 1]; WARP_SIZE] =
                        std::array::from_fn(|l| [x[l][0] + y[l % 20][0] + c[l]]);
                    w.st_shared::<1>(&s4, &v, LaneMask::ALL);
                    let z = w.ld_shared::<1>(&s4, LaneMask::ALL);
                    // float2 pattern: stride 8 B, one lane per 8 B bank.
                    let s8 = lane_addrs(1024 + wid * 512, 8);
                    let v2: [[f32; 2]; WARP_SIZE] =
                        std::array::from_fn(|l| [z[l][0], z[(l + 1) % 32][0]]);
                    w.st_shared::<2>(&s8, &v2, LaneMask::ALL);
                    let q = w.ld_shared::<2>(&s8, LaneMask::ALL);
                    let d = lane_addrs(dst.f32_addr(id * 64 + wid * 32), 4);
                    let out: [[f32; 1]; WARP_SIZE] = std::array::from_fn(|l| [q[l][0] + q[l][1]]);
                    w.st_global::<1>(&d, &out, LaneMask::ALL);
                    w.count_fma(96);
                });
                blk.sync();
            })
            .unwrap();
        gpu.set_trace_sink(None);
        (report, buf.take())
    }

    #[test]
    fn replay_under_capture_spec_is_bit_identical_to_live() {
        for parallelism in [Parallelism::Serial, Parallelism::Threads(3)] {
            let (live, bytes) = all_ops_launch(parallelism, SimMode::Full);
            let reports = replay(&bytes, &TargetSpec::Capture).unwrap();
            assert_eq!(reports.len(), 1);
            let r = &reports[0];
            assert_eq!(r.kernel, "all-ops");
            assert!(!r.aborted);
            assert_eq!(r.stats, live.stats, "{parallelism:?}");
            assert_eq!(r.timing, Some(live.timing), "{parallelism:?}");
            assert_eq!(r.capture_spec.as_ref().unwrap(), &r.target_spec);
            // The kernel exercised every op kind.
            for op in TraceOp::ALL {
                assert!(r.op(op).events > 0, "no {op} events replayed");
            }
            // The decoded slab path is the one `replay` wraps: pricing a
            // trace decoded by hand must agree with it bit for bit.
            let decoded =
                replay_decoded(&Trace::decode(&bytes).unwrap(), &TargetSpec::Capture).unwrap();
            assert_eq!(decoded, reports, "{parallelism:?}");
        }
    }

    /// splitmix64, as in the trace-format property tests.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }

    /// A seeded random KTRC stream: one to three launches of arbitrary
    /// (not kernel-shaped) event soup — scattered and strided lanes,
    /// empty, single-lane, full and random masks, every memory op.
    fn random_stream(seed: u64) -> Vec<u8> {
        let mut rng = Rng(0xFA21_0000 + seed);
        let spec = GpuSpec::kepler_k40m();
        let buf = SharedBuffer::new();
        let mut w = TraceWriter::new(buf.clone());
        for li in 0..1 + (seed % 3) {
            let blocks = 1 + rng.next() % 5;
            w.launch_begin(&TraceLaunch {
                kernel: &format!("rand-{seed}-{li}"),
                grid_blocks: blocks as usize,
                executed_blocks: blocks as usize,
                threads_per_block: 32 * (1 + (rng.next() % 8) as usize),
                smem_bytes: (rng.next() % 40_000) as u32,
                regs_per_thread: 16 + (rng.next() % 48) as u32,
                overlap: OverlapMode::from_u8((rng.next() % 3) as u8).unwrap(),
                spec: &spec,
            });
            for block_id in 0..blocks {
                let events: Vec<TraceEvent> = (0..rng.next() % 24)
                    .map(|_| {
                        let mask = LaneMask(match rng.next() % 4 {
                            0 => 0,
                            1 => 1 << (rng.next() % 32),
                            2 => u32::MAX,
                            _ => rng.next() as u32,
                        });
                        let mut addrs = [0u64; WARP_SIZE];
                        for (lane, slot) in addrs.iter_mut().enumerate() {
                            if mask.is_active(lane) {
                                *slot = match rng.next() % 3 {
                                    0 => rng.next() % (1 << 30), // scattered
                                    _ => 4096 + lane as u64 * (rng.next() % 40),
                                };
                            }
                        }
                        TraceEvent {
                            op: TraceOp::ALL[(rng.next() % 6) as usize],
                            warp: rng.next() as u32 % 8,
                            mask,
                            lane_bytes: 1 << (rng.next() % 4),
                            transactions: 0,
                            cycles: 0,
                            addrs,
                        }
                    })
                    .collect();
                w.block_events(block_id as usize, &events);
            }
            w.launch_end(&KernelStats {
                fma_lane_ops: rng.next() % (1 << 40),
                alu_lane_ops: rng.next() % (1 << 40),
                barriers: rng.next() % 100,
                blocks_total: blocks,
                ..Default::default()
            });
        }
        let (_, err) = w.into_inner();
        assert!(err.is_none());
        buf.take()
    }

    /// Batched-vs-single differential on seeded random streams: for
    /// arbitrary event soup, pricing a launch under every preset in one
    /// walk must equal pricing it once per preset, bit for bit.
    #[test]
    fn multi_spec_replay_equals_per_spec_replay_on_random_streams() {
        for seed in 0..6u64 {
            let bytes = random_stream(seed);
            let trace = Trace::decode(&bytes).unwrap();
            let mut specs = GpuSpec::presets_all();
            specs.extend(
                GpuSpec::kepler_k40m()
                    .grid()
                    .line_sizes(&[32, 64, 128])
                    .ro_cache_bytes(&[128, 48 * 1024])
                    .build()
                    .unwrap(),
            );
            for launch in trace.launches() {
                let batched = replay_launch_specs(launch, &specs);
                assert_eq!(batched.len(), specs.len());
                for (got, spec) in batched.iter().zip(&specs) {
                    let single = replay_launch(launch, &TargetSpec::Spec(spec.clone())).unwrap();
                    assert_eq!(got, &single, "seed {seed} {}", spec.name);
                }
            }
            let rows = replay_decoded_specs(&trace, &specs);
            for (row, spec) in rows.iter().zip(&specs) {
                let target = TargetSpec::Spec(spec.clone());
                assert_eq!(
                    row,
                    &replay_decoded(&trace, &target).unwrap(),
                    "seed {seed}"
                );
            }
            assert_eq!(
                replay(&bytes, &TargetSpec::Capture).unwrap(),
                replay_decoded(&trace, &TargetSpec::Capture).unwrap(),
                "seed {seed}"
            );
        }
    }

    /// A seeded list of one to six specs drawn over every pricing field
    /// (bank count and width, load line, read-only capacity down to one
    /// line, store line, power-of-two and 96-byte constant lines) plus a
    /// timing-only axis, with an exact duplicate appended to every third
    /// list. Small value sets make specs share some keys and not others.
    fn random_specs(seed: u64) -> Vec<GpuSpec> {
        let mut rng = Rng(0x5BEC_0000 + seed);
        let mut pick = |values: &[u64]| values[(rng.next() % values.len() as u64) as usize];
        let mut specs: Vec<GpuSpec> = (0..1 + seed % 6)
            .map(|_| GpuSpec {
                smem_banks: pick(&[16, 32]) as u32,
                bank_width: [BankWidth::B4, BankWidth::B8][pick(&[0, 1]) as usize],
                gm_transaction_bytes: pick(&[32, 64, 128]),
                ro_cache_bytes: pick(&[128, 256, 48 * 1024]),
                gm_store_transaction_bytes: pick(&[32, 128]),
                cm_line_bytes: pick(&[64, 96, 256]),
                sm_count: pick(&[8, 15]) as u32,
                ..GpuSpec::kepler_k40m()
            })
            .collect();
        if seed % 3 == 2 {
            let twin = specs[(seed / 3) as usize % specs.len()].clone();
            specs.push(twin);
        }
        specs
    }

    /// The guard on the pricing keys: on seeded random spec lists that
    /// vary every pricing field, one grouped walk must equal pricing each
    /// spec alone, on both a kernel's capture and random event soup. A key
    /// that dropped any pricing field would let two specs differing in it
    /// share a pricer, and the second would take the first's counters.
    #[test]
    fn grouped_pricing_equals_per_spec_replay_on_random_spec_lists() {
        let (_, kernel_bytes) = all_ops_launch(Parallelism::Serial, SimMode::Full);
        let kernel = Trace::decode(&kernel_bytes).unwrap();
        let (mut singles, mut twins, mut odd_lines) = (0, 0, 0);
        for seed in 0..48u64 {
            let specs = random_specs(seed);
            singles += usize::from(specs.len() == 1);
            twins += usize::from(
                specs
                    .iter()
                    .any(|s| specs.iter().filter(|t| *t == s).count() > 1),
            );
            odd_lines += specs
                .iter()
                .filter(|s| !s.cm_line_bytes.is_power_of_two())
                .count();
            let soup = Trace::decode(&random_stream(seed)).unwrap();
            for launch in kernel.launches().iter().chain(soup.launches()) {
                let grouped = replay_launch_specs(launch, &specs);
                assert_eq!(grouped.len(), specs.len());
                for (got, spec) in grouped.iter().zip(&specs) {
                    let single = replay_launch(launch, &TargetSpec::Spec(spec.clone())).unwrap();
                    assert_eq!(
                        got, &single,
                        "seed {seed}, {}: {spec:?}",
                        launch.header.kernel
                    );
                }
            }
        }
        assert!(singles > 0 && twins > 0 && odd_lines > 0);
    }

    #[test]
    fn pricing_groups_count_distinct_keys_per_space() {
        let grid = GpuSpec::kepler_k40m()
            .grid()
            .bank_widths(&[BankWidth::B4, BankWidth::B8])
            .line_sizes(&[64, 128])
            .ro_cache_bytes(&[24 * 1024, 48 * 1024])
            .sm_counts(&[8, 15])
            .build()
            .unwrap();
        assert_eq!(grid.len(), 16);
        assert_eq!(pricing_groups(&grid), [2, 4, 1, 1, 1]);
        assert_eq!(pricing_groups(&grid[..1]), [1; Space::COUNT]);
        assert_eq!(pricing_groups(&[]), [0; Space::COUNT]);
        // The key array and the routing agree on which index is which space.
        for (i, key) in pricing_keys(&grid[0]).iter().enumerate() {
            assert_eq!(Space::ALL[i] as usize, i);
            assert_eq!(key.space(), Space::ALL[i]);
        }
    }

    #[test]
    fn replay_reproduces_sampled_launch_scaling() {
        let (live, bytes) = all_ops_launch(Parallelism::Serial, SimMode::Sampled(2));
        let r = &replay(&bytes, &TargetSpec::Capture).unwrap()[0];
        assert_eq!(r.executed_blocks, 2);
        assert_eq!(r.grid_blocks, 6);
        assert_eq!(r.stats, live.stats);
        assert_eq!(r.timing, Some(live.timing));
    }

    #[test]
    fn replay_under_other_specs_keeps_useful_bytes_and_repriced_costs_move() {
        let (_, bytes) = all_ops_launch(Parallelism::Serial, SimMode::Full);
        let kepler = &replay(&bytes, &TargetSpec::Capture).unwrap()[0];
        let four_byte = &replay(&bytes, &TargetSpec::Spec(GpuSpec::kepler_k40m_4b())).unwrap()[0];
        // Useful bytes are a property of the access pattern, not the spec.
        assert_eq!(
            kepler.stats.sm_bytes_useful,
            four_byte.stats.sm_bytes_useful
        );
        assert_eq!(
            kepler.stats.gm_ld_bytes_useful,
            four_byte.stats.gm_ld_bytes_useful
        );
        // Per-op lane counts are pure trace facts: identical in any sweep.
        for op in TraceOp::ALL {
            assert_eq!(kepler.op(op).lane_accesses, four_byte.op(op).lane_accesses);
            assert_eq!(kepler.op(op).useful_bytes, four_byte.op(op).useful_bytes);
        }
        // Every shared access here is full-mask and aligned, so 4-byte
        // banks serve them with zero wasted bytes (the float2 pattern
        // takes 2x the cycles there, but moves only requested data);
        // Kepler's 8-byte banks waste half of each row the unvectorized
        // float pattern touches, pushing the blended waste above 1.
        assert_eq!(four_byte.sm_waste(), 1.0);
        assert!(kepler.sm_waste() > 1.0);
    }

    /// Builds a synthetic one-block trace of full-mask shared-memory loads
    /// with the given per-lane width and byte stride.
    fn sm_pattern_trace(lane_bytes: u32, stride: u64, events: usize) -> Vec<u8> {
        let spec = GpuSpec::kepler_k40m();
        let buf = SharedBuffer::new();
        let mut w = TraceWriter::new(buf.clone());
        w.launch_begin(&TraceLaunch {
            kernel: "pattern",
            grid_blocks: 1,
            executed_blocks: 1,
            threads_per_block: 256,
            smem_bytes: 4096,
            regs_per_thread: 32,
            overlap: OverlapMode::Prefetch,
            spec: &spec,
        });
        let evs: Vec<TraceEvent> = (0..events)
            .map(|_| {
                let mut addrs = [0u64; WARP_SIZE];
                for (lane, a) in addrs.iter_mut().enumerate() {
                    *a = lane as u64 * stride;
                }
                TraceEvent {
                    op: TraceOp::SmLd,
                    warp: 0,
                    mask: LaneMask::ALL,
                    lane_bytes,
                    transactions: 0,
                    cycles: 1,
                    addrs,
                }
            })
            .collect();
        w.block_events(0, &evs);
        w.launch_end(&KernelStats::default());
        buf.take()
    }

    #[test]
    fn bank_width_mismatch_factor_appears_and_vanishes() {
        let b8 = TargetSpec::Spec(GpuSpec::kepler_k40m());
        let b4 = TargetSpec::Spec(GpuSpec::kepler_k40m_4b());

        // Unvectorized floats, stride 4: each 8-byte Kepler bank serves
        // two lanes' words in its one-cycle row, so the pattern is
        // conflict-free on both widths — but on 8-byte banks only half of
        // every fetched row is requested: waste = n = 2 (eq. 1).
        let float_trace = sm_pattern_trace(4, 4, 10);
        let f_b8 = &replay(&float_trace, &b8).unwrap()[0];
        let f_b4 = &replay(&float_trace, &b4).unwrap()[0];
        assert_eq!(f_b8.sm_cycles(), 10);
        assert_eq!(f_b4.sm_cycles(), 10);
        assert_eq!(f_b8.sm_waste(), 2.0);
        assert_eq!(f_b4.sm_waste(), 1.0);

        // float2, stride 8: one lane per 8-byte bank — fully matched on
        // Kepler. On 4-byte banks each lane spans two banks, halving the
        // row throughput: exactly 2x the cycles, but no wasted bytes.
        let float2_trace = sm_pattern_trace(8, 8, 10);
        let v_b8 = &replay(&float2_trace, &b8).unwrap()[0];
        let v_b4 = &replay(&float2_trace, &b4).unwrap()[0];
        assert_eq!(v_b8.sm_waste(), 1.0);
        assert_eq!(v_b4.sm_waste(), 1.0);
        assert_eq!(v_b4.sm_cycles(), 2 * v_b8.sm_cycles());
    }

    /// Hand-encodes a v1 (spec-less) trace: one launch, one block, one
    /// full-mask stride-4 shared-memory load, fma count 64.
    fn v1_trace() -> Vec<u8> {
        let mut b = Vec::new();
        b.extend_from_slice(&MAGIC);
        b.push(V1);
        b.push(1); // launch begin
        write_u64(&mut b, 6);
        b.extend_from_slice(b"legacy");
        write_u64(&mut b, 1); // grid
        write_u64(&mut b, 1); // executed
        write_u64(&mut b, 32); // threads
        write_u64(&mut b, 2048); // smem
        b.push(2); // block record
        write_u64(&mut b, 0); // block id
        write_u64(&mut b, 1); // event count
        b.push(TraceOp::SmLd as u8);
        write_u64(&mut b, 0); // warp
        write_u64(&mut b, u64::from(LaneMask::ALL.0));
        write_u64(&mut b, 4); // lane bytes
        write_u64(&mut b, 0); // transactions
        write_u64(&mut b, 1); // cycles
        write_u64(&mut b, 0); // first address
        for _ in 1..WARP_SIZE {
            write_u64(&mut b, zigzag(4)); // +4 B per lane
        }
        b.push(3); // launch end
        b.push(0); // not aborted
        write_u64(&mut b, 64); // fma lane ops
        b
    }

    #[test]
    fn v1_trace_requires_an_explicit_spec() {
        let bytes = v1_trace();
        match replay(&bytes, &TargetSpec::Capture) {
            Err(ReplayError::MissingCaptureSpec { kernel }) => assert_eq!(kernel, "legacy"),
            other => panic!("expected MissingCaptureSpec, got {other:?}"),
        }
    }

    #[test]
    fn v1_trace_replays_under_an_assumed_spec() {
        let bytes = v1_trace();
        let r = &replay(&bytes, &TargetSpec::Spec(GpuSpec::kepler_k40m())).unwrap()[0];
        assert_eq!(r.kernel, "legacy");
        assert!(r.capture_spec.is_none());
        assert_eq!(r.stats.sm_ld_requests, 1);
        assert_eq!(r.stats.sm_ld_cycles, 1); // stride 4 on 8 B banks: pairs share a row
        assert_eq!(r.stats.sm_bytes_useful, 32 * 4);
        assert_eq!(r.stats.fma_lane_ops, 64); // grafted from the v1 end record
        assert_eq!(r.stats.blocks_total, 1);
        assert!(r.timing.is_some(), "v1 headers default to runnable configs");
        // The same pattern on 4-byte banks is fully matched.
        let r4 = &replay(&bytes, &TargetSpec::Spec(GpuSpec::fermi_m2090())).unwrap()[0];
        assert_eq!(r4.sm_waste(), 1.0);
        assert_eq!(r.sm_waste(), 2.0);
    }

    #[test]
    fn aborted_captures_report_the_clean_prefix_without_timing() {
        // A trace cut off mid-launch: header + one block, no end record.
        let spec = GpuSpec::kepler_k40m();
        let buf = SharedBuffer::new();
        let mut w = TraceWriter::new(buf.clone());
        w.launch_begin(&TraceLaunch {
            kernel: "cut",
            grid_blocks: 4,
            executed_blocks: 4,
            threads_per_block: 32,
            smem_bytes: 0,
            regs_per_thread: 32,
            overlap: OverlapMode::Prefetch,
            spec: &spec,
        });
        let mut addrs = [0u64; WARP_SIZE];
        for (lane, a) in addrs.iter_mut().enumerate() {
            *a = lane as u64 * 4;
        }
        w.block_events(
            0,
            &[TraceEvent {
                op: TraceOp::GmLd,
                warp: 0,
                mask: LaneMask::ALL,
                lane_bytes: 4,
                transactions: 1,
                cycles: 0,
                addrs,
            }],
        );
        drop(w);
        let r = &replay(&buf.take(), &TargetSpec::Capture).unwrap()[0];
        assert!(r.aborted);
        assert!(r.timing.is_none());
        assert_eq!(r.stats.blocks_executed, 1);
        assert_eq!(r.stats.blocks_total, 4); // prefix is NOT extrapolated
        assert_eq!(r.stats.gm_ld_transactions, 1);
    }
}
