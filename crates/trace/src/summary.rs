//! Constant-memory per-launch roll-ups of a binary trace.
//!
//! A [`TraceSummary`] is what you can compute in one streaming pass with
//! O(1) state per launch: per-op totals (events, lane accesses, useful
//! bytes, transactions, cycles) and the shared-memory conflict histogram.
//! Anything that needs per-address state (distinct lines, read
//! multiplicity) lives in [`crate::analyze`].

use kconv_sim::{KernelStats, TraceEvent, TraceOp};

use crate::format::{read_trace, LaunchEnd, LaunchHeader, TraceVisitor};
use crate::TraceError;

/// Totals for one [`TraceOp`] kind within a launch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpTotals {
    /// Warp instructions of this kind.
    pub events: u64,
    /// Active lanes summed over those instructions.
    pub lane_accesses: u64,
    /// Bytes the active lanes requested (`mask.count() * lane_bytes`).
    pub useful_bytes: u64,
    /// Global-memory bus transactions charged (0 for SM/CM ops).
    pub transactions: u64,
    /// SM/CM pipeline cycles charged (0 for GM ops).
    pub cycles: u64,
}

/// One launch's trace rolled up to totals.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSummary {
    /// Kernel name from the launch header.
    pub kernel: String,
    /// Blocks whose events are in the trace.
    pub blocks: u64,
    /// Total events across all ops.
    pub events: u64,
    /// Totals per op kind, indexed by [`TraceOp::index`].
    pub per_op: [OpTotals; TraceOp::COUNT],
    /// Shared-memory accesses (loads + stores) bucketed by their replay
    /// cost, using the same degree buckets as
    /// [`KernelStats::sm_conflict_histogram`]: 1, 2, 3–4, 5–8, 9–16,
    /// 17–32 cycles.
    pub sm_conflict_histogram: [u64; 6],
    /// `fma_lane_ops` from the launch-end record (0 if aborted).
    pub fma_lane_ops: u64,
    /// Whether the launch aborted (faulted or truncated trace).
    pub aborted: bool,
    /// Fewest barrier-arrival events recorded by any single block in the
    /// trace (0 when the trace holds no blocks). With one
    /// [`TraceOp::Bar`] event per warp per `__syncthreads()`, a block of
    /// `w` warps running `b` barriers records `w * b` arrivals.
    pub block_bar_min: u64,
    /// Most barrier-arrival events recorded by any single block.
    pub block_bar_max: u64,
    /// Arrivals in the block currently being absorbed; folded into
    /// min/max at the next block boundary or at launch end.
    open_block_bars: u64,
    /// Whether a block is open (so empty traces fold nothing).
    in_block: bool,
}

impl TraceSummary {
    pub(crate) fn new(kernel: String) -> Self {
        TraceSummary {
            kernel,
            blocks: 0,
            events: 0,
            per_op: [OpTotals::default(); TraceOp::COUNT],
            sm_conflict_histogram: [0; 6],
            fma_lane_ops: 0,
            aborted: true,
            block_bar_min: u64::MAX,
            block_bar_max: 0,
            open_block_bars: 0,
            in_block: false,
        }
    }

    pub(crate) fn absorb(&mut self, ev: &TraceEvent) {
        self.events += 1;
        let t = &mut self.per_op[ev.op.index()];
        t.events += 1;
        t.lane_accesses += u64::from(ev.mask.count());
        t.useful_bytes += ev.useful_bytes();
        t.transactions += u64::from(ev.transactions);
        t.cycles += u64::from(ev.cycles);
        if matches!(ev.op, TraceOp::SmLd | TraceOp::SmSt) && ev.cycles > 0 {
            self.sm_conflict_histogram[KernelStats::conflict_bucket(u64::from(ev.cycles))] += 1;
        }
        if ev.op == TraceOp::Bar {
            self.open_block_bars += 1;
        }
    }

    /// Marks a block boundary: folds the previous block's barrier count
    /// and counts the new block.
    pub(crate) fn begin_block(&mut self) {
        self.fold_open_block();
        self.blocks += 1;
        self.in_block = true;
    }

    fn fold_open_block(&mut self) {
        if self.in_block {
            self.block_bar_min = self.block_bar_min.min(self.open_block_bars);
            self.block_bar_max = self.block_bar_max.max(self.open_block_bars);
            self.open_block_bars = 0;
            self.in_block = false;
        }
    }

    /// Applies the launch-end record and closes the last block.
    pub(crate) fn finalize(&mut self, end: &LaunchEnd) {
        self.fold_open_block();
        if self.block_bar_min == u64::MAX {
            self.block_bar_min = 0;
        }
        self.aborted = end.aborted;
        self.fma_lane_ops = end.fma_lane_ops;
    }

    /// Summarizes every launch in a binary trace, in file order.
    ///
    /// # Errors
    ///
    /// Propagates [`read_trace`]'s errors.
    pub fn from_bytes(bytes: &[u8]) -> Result<Vec<TraceSummary>, TraceError> {
        #[derive(Default)]
        struct Roll {
            done: Vec<TraceSummary>,
            open: Option<TraceSummary>,
        }
        impl TraceVisitor for Roll {
            fn launch_begin(&mut self, header: &LaunchHeader) {
                self.open = Some(TraceSummary::new(header.kernel.clone()));
            }
            fn block_begin(&mut self, _block_id: u64, _event_count: u64) {
                if let Some(open) = self.open.as_mut() {
                    open.begin_block();
                }
            }
            fn event(&mut self, _block_id: u64, ev: &TraceEvent) {
                if let Some(open) = self.open.as_mut() {
                    open.absorb(ev);
                }
            }
            fn launch_end(&mut self, end: &LaunchEnd) {
                if let Some(mut open) = self.open.take() {
                    open.finalize(end);
                    self.done.push(open);
                }
            }
        }
        let mut roll = Roll::default();
        read_trace(bytes, &mut roll)?;
        Ok(roll.done)
    }

    /// Totals for one op kind.
    pub fn op(&self, op: TraceOp) -> &OpTotals {
        &self.per_op[op.index()]
    }

    /// Useful bytes loaded from global memory (plain + read-only path).
    pub fn gm_ld_useful_bytes(&self) -> u64 {
        self.op(TraceOp::GmLd).useful_bytes + self.op(TraceOp::GmLdRo).useful_bytes
    }

    /// Useful bytes stored to global memory.
    pub fn gm_st_useful_bytes(&self) -> u64 {
        self.op(TraceOp::GmSt).useful_bytes
    }

    /// Global-memory bus transactions (loads + stores).
    pub fn gm_transactions(&self) -> u64 {
        self.op(TraceOp::GmLd).transactions
            + self.op(TraceOp::GmLdRo).transactions
            + self.op(TraceOp::GmSt).transactions
    }

    /// Shared-memory pipeline cycles (loads + stores, replays included).
    pub fn sm_cycles(&self) -> u64 {
        self.op(TraceOp::SmLd).cycles + self.op(TraceOp::SmSt).cycles
    }

    /// Shared-memory warp accesses (loads + stores).
    pub fn sm_accesses(&self) -> u64 {
        self.op(TraceOp::SmLd).events + self.op(TraceOp::SmSt).events
    }

    /// Barrier-arrival events across the launch (one per warp per
    /// `__syncthreads()`) — the trace-side counterpart of
    /// [`KernelStats::bar_syncs`]. 0 for pre-v4 captures, which did not
    /// record [`TraceOp::Bar`] events.
    pub fn bar_arrivals(&self) -> u64 {
        self.op(TraceOp::Bar).events
    }

    /// Shared-memory cycles per FMA lane-op — the paper's "SM transactions
    /// per FMA" axis. `None` when the trace carries no FMA count (aborted
    /// launch).
    pub fn sm_cycles_per_fma(&self) -> Option<f64> {
        (self.fma_lane_ops > 0).then(|| self.sm_cycles() as f64 / self.fma_lane_ops as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::TraceWriter;
    use crate::SharedBuffer;
    use kconv_sim::{GpuSpec, LaneMask, OverlapMode, TraceLaunch, TraceSink, WARP_SIZE};

    fn ev(op: TraceOp, lanes: usize, cycles: u32, tx: u32) -> TraceEvent {
        TraceEvent {
            op,
            warp: 0,
            mask: LaneMask::first(lanes),
            lane_bytes: 4,
            transactions: tx,
            cycles,
            addrs: [0; WARP_SIZE],
        }
    }

    #[test]
    fn totals_and_histogram() {
        let buf = SharedBuffer::new();
        let mut w = TraceWriter::new(buf.clone());
        let spec = GpuSpec::kepler_k40m();
        w.launch_begin(&TraceLaunch {
            kernel: "k",
            grid_blocks: 2,
            executed_blocks: 2,
            threads_per_block: 32,
            smem_bytes: 0,
            regs_per_thread: 32,
            overlap: OverlapMode::Prefetch,
            spec: &spec,
        });
        w.block_events(
            0,
            &[
                ev(TraceOp::GmLd, 32, 0, 2),
                ev(TraceOp::SmLd, 32, 1, 0),
                ev(TraceOp::SmSt, 16, 4, 0),
            ],
        );
        w.block_events(
            1,
            &[ev(TraceOp::SmLd, 32, 32, 0), ev(TraceOp::CmLd, 8, 3, 0)],
        );
        w.launch_end(&KernelStats {
            fma_lane_ops: 1000,
            ..Default::default()
        });
        let summaries = TraceSummary::from_bytes(&buf.take()).unwrap();
        assert_eq!(summaries.len(), 1);
        let s = &summaries[0];
        assert_eq!(s.kernel, "k");
        assert_eq!(s.blocks, 2);
        assert_eq!(s.events, 5);
        assert!(!s.aborted);
        assert_eq!(s.gm_ld_useful_bytes(), 32 * 4);
        assert_eq!(s.gm_transactions(), 2);
        assert_eq!(s.op(TraceOp::SmLd).lane_accesses, 64);
        assert_eq!(s.sm_cycles(), 1 + 4 + 32);
        assert_eq!(s.sm_accesses(), 3);
        assert_eq!(s.op(TraceOp::CmLd).cycles, 3);
        // Buckets: 1 cycle -> 0, 4 -> 2, 32 -> 5.
        assert_eq!(s.sm_conflict_histogram, [1, 0, 1, 0, 0, 1]);
        assert_eq!(s.fma_lane_ops, 1000);
        assert_eq!(s.sm_cycles_per_fma(), Some(0.037));
        // No Bar events in this trace: zero arrivals everywhere.
        assert_eq!(s.bar_arrivals(), 0);
        assert_eq!((s.block_bar_min, s.block_bar_max), (0, 0));
    }

    fn bar() -> TraceEvent {
        TraceEvent {
            op: TraceOp::Bar,
            warp: 0,
            mask: LaneMask(0),
            lane_bytes: 0,
            transactions: 0,
            cycles: 0,
            addrs: [0; WARP_SIZE],
        }
    }

    #[test]
    fn per_block_bar_counts_roll_into_min_max() {
        let buf = SharedBuffer::new();
        let mut w = TraceWriter::new(buf.clone());
        let spec = GpuSpec::kepler_k40m();
        w.launch_begin(&TraceLaunch {
            kernel: "k",
            grid_blocks: 3,
            executed_blocks: 3,
            threads_per_block: 32,
            smem_bytes: 0,
            regs_per_thread: 32,
            overlap: OverlapMode::Prefetch,
            spec: &spec,
        });
        // Blocks with 2, 4 and 0 barrier arrivals.
        w.block_events(0, &[bar(), ev(TraceOp::GmLd, 32, 0, 2), bar()]);
        w.block_events(1, &[bar(), bar(), bar(), bar()]);
        w.block_events(2, &[ev(TraceOp::SmLd, 32, 1, 0)]);
        w.launch_end(&KernelStats::default());
        let summaries = TraceSummary::from_bytes(&buf.take()).unwrap();
        let s = &summaries[0];
        assert_eq!(s.bar_arrivals(), 6);
        assert_eq!(s.block_bar_min, 0);
        assert_eq!(s.block_bar_max, 4);
        // Bar events move no bytes and charge no costs.
        assert_eq!(s.op(TraceOp::Bar).useful_bytes, 0);
        assert_eq!(s.op(TraceOp::Bar).cycles, 0);
    }
}
