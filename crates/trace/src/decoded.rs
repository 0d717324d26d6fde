//! Decoded in-memory traces: parse the KTRC byte stream **once**, re-price
//! it many times.
//!
//! [`read_trace`] is a streaming parser — cheap in memory, but every
//! consumer pays the full varint/zigzag decode again. That is the wrong
//! trade for the replay farm, which prices one capture under dozens of
//! hypothetical [`GpuSpec`](kconv_sim::GpuSpec)s: decoding dominates
//! pricing. A [`Trace`] materializes the stream into three flat slabs per
//! launch —
//!
//! * one fixed-size record per event: its [`EventHead`] (op, warp, mask,
//!   bytes/lane, recorded transactions/cycles) plus the event's lane
//!   addresses in the smaller of two exact forms,
//! * an irregular slab of full 32-lane address rows for the events the
//!   compact form cannot hold, and
//! * block spans (`block_id` + event range)
//!
//! — no per-event `Vec`, no pointer chasing.
//!
//! **Lane-address forms.** The paper's kernels are built from warps whose
//! active lanes touch `base + lane × stride`, so most events are stored
//! as that `(base, stride)` pair: 16 bytes instead of 256. The form is
//! chosen per event at decode time: `base` and `stride` come from the
//! first two active lanes, and the pair is kept only if rebuilding it
//! (active lanes `base + lane·stride` under `u64` wrapping arithmetic,
//! inactive lanes zero) reproduces all 32 canonical lanes bit for bit.
//! Every other event keeps its 32 addresses in the irregular slab. No
//! address can be lost, and there is no mode to choose.
//!
//! Replay walks the slabs with [`BlockView::for_each_event`], which hands
//! out each event's addresses as a [`&WarpAddrs`](kconv_sim::WarpAddrs) —
//! exactly the type the shared pricing functions take — borrowing
//! irregular rows zero-copy and expanding affine ones into a stack buffer.
//!
//! The decoded form is *lossless* with respect to the pricing inputs:
//! every header, end record and event field that [`read_launches`]
//! materializes is recoverable (see [`BlockView::to_events`]), which the
//! round-trip property test pins.
//!
//! [`read_trace`]: crate::read_trace
//! [`read_launches`]: crate::read_launches

use kconv_sim::{LaneMask, TraceEvent, TraceOp, WarpAddrs};

use crate::format::{LaunchEnd, LaunchHeader, TraceVisitor};
use crate::TraceError;

/// The fixed-size part of one traced warp instruction — everything except
/// the lane addresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventHead {
    /// Which instruction.
    pub op: TraceOp,
    /// Issuing warp id within its block.
    pub warp: u32,
    /// Active lanes.
    pub mask: LaneMask,
    /// Bytes accessed per active lane.
    pub lane_bytes: u32,
    /// Transactions charged at capture time.
    pub transactions: u32,
    /// Cycles charged at capture time.
    pub cycles: u32,
}

/// Where one event's lane addresses live.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Lanes {
    /// Active lane `l` is at `base + l·stride` (wrapping); inactive lanes
    /// are zero.
    Affine { base: u64, stride: u64 },
    /// Row index into the launch's irregular slab.
    Irregular(usize),
}

/// One decoded event: its head and its lane-address form.
#[derive(Debug, Clone, Copy)]
struct Event {
    head: EventHead,
    lanes: Lanes,
}

/// The canonical addresses of the affine form: active lanes at
/// `base + lane·stride` under wrapping arithmetic, inactive lanes zero.
fn expand(base: u64, stride: u64, mask: LaneMask) -> WarpAddrs {
    std::array::from_fn(|lane| {
        let live = 0u64.wrapping_sub(u64::from((mask.0 >> lane) & 1));
        base.wrapping_add((lane as u64).wrapping_mul(stride)) & live
    })
}

/// The `(base, stride)` pair whose expansion is exactly `addrs`, if any.
/// Both come from the first two active lanes (a lone active lane gets
/// stride 0, an empty mask base 0); the pair is returned only when the
/// expansion reproduces all 32 lanes.
fn affine_form(mask: LaneMask, addrs: &WarpAddrs) -> Option<(u64, u64)> {
    let (base, stride) = if mask.is_empty() {
        (0, 0)
    } else {
        let l0 = mask.0.trailing_zeros() as usize;
        let rest = mask.0 & (mask.0 - 1);
        let stride = if rest == 0 {
            0
        } else {
            let l1 = rest.trailing_zeros() as usize;
            // Signed reinterpretation lets a negative stride divide
            // exactly; a pair it gets wrong fails the check below.
            let gap = (l1 - l0) as i64;
            let delta = addrs[l1].wrapping_sub(addrs[l0]) as i64;
            if delta % gap != 0 {
                return None;
            }
            (delta / gap) as u64
        };
        (
            addrs[l0].wrapping_sub((l0 as u64).wrapping_mul(stride)),
            stride,
        )
    };
    (expand(base, stride, mask) == *addrs).then_some((base, stride))
}

/// One block's event range inside a [`DecodedLaunch`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct BlockSpan {
    id: u64,
    start: usize,
    len: usize,
}

/// One launch of a [`Trace`]: header, end record, and the flat event slabs.
#[derive(Debug, Clone)]
pub struct DecodedLaunch {
    /// Launch metadata (including the capture spec for v2+ traces).
    pub header: LaunchHeader,
    /// How the launch ended (synthesized aborted on truncation, like the
    /// streaming reader).
    pub end: LaunchEnd,
    blocks: Vec<BlockSpan>,
    events: Vec<Event>,
    /// Lane addresses of the events that are not affine, one row each.
    irregular: Vec<WarpAddrs>,
}

impl DecodedLaunch {
    fn new(header: LaunchHeader) -> Self {
        DecodedLaunch {
            header,
            end: LaunchEnd {
                aborted: true,
                fma_lane_ops: 0,
                stats: None,
            },
            blocks: Vec::new(),
            events: Vec::new(),
            irregular: Vec::new(),
        }
    }

    /// Number of traced events across all blocks.
    pub fn event_count(&self) -> usize {
        self.events.len()
    }

    /// Number of events stored in the compact `(base, stride)` form; the
    /// rest hold a full row in the irregular slab.
    pub fn affine_event_count(&self) -> usize {
        self.events.len() - self.irregular.len()
    }

    /// Number of block records.
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// The blocks in delivery order, each a borrowed view into the slabs.
    pub fn blocks(&self) -> impl ExactSizeIterator<Item = BlockView<'_>> + '_ {
        self.blocks.iter().map(|span| BlockView {
            block_id: span.id,
            events: &self.events[span.start..span.start + span.len],
            irregular: &self.irregular,
        })
    }

    /// Heap bytes held by the launch's slabs, from their capacities.
    fn heap_bytes(&self) -> usize {
        self.blocks.capacity() * std::mem::size_of::<BlockSpan>()
            + self.events.capacity() * std::mem::size_of::<Event>()
            + self.irregular.capacity() * std::mem::size_of::<WarpAddrs>()
    }
}

/// Borrowed view of one block's events inside a [`DecodedLaunch`].
#[derive(Debug, Clone, Copy)]
pub struct BlockView<'a> {
    /// The block id recorded by the writer.
    pub block_id: u64,
    events: &'a [Event],
    /// The whole launch's irregular slab (rows are indexed launch-wide).
    irregular: &'a [WarpAddrs],
}

impl BlockView<'_> {
    /// Number of events in this block.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the block recorded no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Calls `f` on the block's events in issue order, each head paired
    /// with its 32 canonical lane addresses: irregular rows are borrowed
    /// from the slab, affine events are expanded into a stack buffer.
    pub fn for_each_event(&self, mut f: impl FnMut(&EventHead, &WarpAddrs)) {
        for ev in self.events {
            match ev.lanes {
                Lanes::Affine { base, stride } => {
                    f(&ev.head, &expand(base, stride, ev.head.mask));
                }
                Lanes::Irregular(row) => f(&ev.head, &self.irregular[row]),
            }
        }
    }

    /// Re-materializes the block as owned [`TraceEvent`]s (canonical form),
    /// for comparison against [`read_launches`](crate::read_launches).
    pub fn to_events(&self) -> Vec<TraceEvent> {
        let mut out = Vec::with_capacity(self.len());
        self.for_each_event(|head, addrs| {
            out.push(TraceEvent {
                op: head.op,
                warp: head.warp,
                mask: head.mask,
                lane_bytes: head.lane_bytes,
                transactions: head.transactions,
                cycles: head.cycles,
                addrs: *addrs,
            });
        });
        out
    }
}

/// A fully decoded KTRC byte stream: every launch in slab form, ready to be
/// re-priced many times without touching the varint decoder again.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    launches: Vec<DecodedLaunch>,
}

impl Trace {
    /// Decodes a binary KTRC stream (any readable version) into slabs.
    ///
    /// # Errors
    ///
    /// Propagates [`read_trace`](crate::read_trace)'s
    /// [`TraceError::Malformed`] on corrupt or truncated input.
    pub fn decode(bytes: &[u8]) -> Result<Trace, TraceError> {
        struct Builder {
            done: Vec<DecodedLaunch>,
            open: Option<DecodedLaunch>,
        }
        impl TraceVisitor for Builder {
            fn launch_begin(&mut self, header: &LaunchHeader) {
                self.open = Some(DecodedLaunch::new(header.clone()));
            }
            fn block_begin(&mut self, block_id: u64, event_count: u64) {
                if let Some(open) = self.open.as_mut() {
                    open.blocks.push(BlockSpan {
                        id: block_id,
                        start: open.events.len(),
                        len: 0,
                    });
                    // The count is an untrusted varint: clamp the
                    // speculative pre-allocation so a corrupt header
                    // cannot demand gigabytes (or overflow the capacity
                    // math) before the event bytes fail to decode. The
                    // irregular slab is never pre-sized: it grows only
                    // with events that actually decoded.
                    let reserve = event_count.min(crate::RESERVE_EVENTS_MAX) as usize;
                    open.events.reserve(reserve);
                }
            }
            fn event(&mut self, _block_id: u64, ev: &TraceEvent) {
                if let Some(open) = self.open.as_mut() {
                    // The decoder leaves inactive lanes zeroed, so both
                    // forms hold the canonical addresses.
                    let lanes = match affine_form(ev.mask, &ev.addrs) {
                        Some((base, stride)) => Lanes::Affine { base, stride },
                        None => {
                            open.irregular.push(ev.addrs);
                            Lanes::Irregular(open.irregular.len() - 1)
                        }
                    };
                    open.events.push(Event {
                        head: EventHead {
                            op: ev.op,
                            warp: ev.warp,
                            mask: ev.mask,
                            lane_bytes: ev.lane_bytes,
                            transactions: ev.transactions,
                            cycles: ev.cycles,
                        },
                        lanes,
                    });
                    if let Some(span) = open.blocks.last_mut() {
                        span.len += 1;
                    }
                }
            }
            fn launch_end(&mut self, end: &LaunchEnd) {
                if let Some(mut open) = self.open.take() {
                    open.end = *end;
                    // Growth leaves up to half of each slab unused; the
                    // launch is immutable from here on.
                    open.blocks.shrink_to_fit();
                    open.events.shrink_to_fit();
                    open.irregular.shrink_to_fit();
                    self.done.push(open);
                }
            }
        }
        let mut builder = Builder {
            done: Vec::new(),
            open: None,
        };
        crate::format::read_trace(bytes, &mut builder)?;
        Ok(Trace {
            launches: builder.done,
        })
    }

    /// The decoded launches in stream order.
    pub fn launches(&self) -> &[DecodedLaunch] {
        &self.launches
    }

    /// Total events across all launches.
    pub fn total_events(&self) -> usize {
        self.launches.iter().map(DecodedLaunch::event_count).sum()
    }

    /// Heap bytes held by the decoded slabs of every launch (event
    /// records, irregular address rows and block spans), computed from
    /// the slabs' capacities.
    pub fn heap_bytes(&self) -> usize {
        self.launches.iter().map(DecodedLaunch::heap_bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::{read_launches, SharedBuffer, TraceWriter};
    use kconv_sim::{GpuSpec, KernelStats, OverlapMode, TraceLaunch, TraceSink, WARP_SIZE};

    /// splitmix64, as in the format round-trip property test.
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

    fn random_stream(seed: u64) -> Vec<u8> {
        let mut rng = Rng(0xFA43_0000 + seed);
        let spec = GpuSpec::kepler_k40m();
        let buf = SharedBuffer::new();
        let mut w = TraceWriter::new(buf.clone());
        for li in 0..1 + (seed % 3) {
            let name = format!("kernel-{seed}-{li}");
            let blocks = 1 + (rng.next() % 4);
            w.launch_begin(&TraceLaunch {
                kernel: &name,
                grid_blocks: blocks as usize,
                executed_blocks: blocks as usize,
                threads_per_block: 64,
                smem_bytes: (rng.next() % 48_000) as u32,
                regs_per_thread: 16 + (rng.next() % 200) as u32,
                overlap: OverlapMode::from_u8((rng.next() % 3) as u8).unwrap(),
                spec: &spec,
            });
            for block_id in 0..blocks {
                let events: Vec<TraceEvent> = (0..rng.next() % 20)
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
                                *slot = rng.next() % (1 << 40);
                            }
                        }
                        TraceEvent {
                            op: TraceOp::ALL[(rng.next() % 6) as usize],
                            warp: rng.next() as u32,
                            mask,
                            lane_bytes: (rng.next() % 17) as u32,
                            transactions: rng.next() as u32,
                            cycles: rng.next() as u32,
                            addrs,
                        }
                    })
                    .collect();
                w.block_events(block_id as usize, &events);
            }
            w.launch_end(&KernelStats {
                fma_lane_ops: rng.next(),
                blocks_total: blocks,
                ..Default::default()
            });
        }
        let (_, err) = w.into_inner();
        assert!(err.is_none());
        buf.take()
    }

    /// Corpus round-trip property: on seeded random streams the decoded
    /// slab view reproduces exactly what the materializing reader sees —
    /// headers, ends, block ids, and every event field-exact.
    #[test]
    fn decoded_view_equals_materialized_launches() {
        for seed in 0..8u64 {
            let bytes = random_stream(seed);
            let want = read_launches(&bytes).unwrap();
            let trace = Trace::decode(&bytes).unwrap();
            assert_eq!(trace.launches().len(), want.len(), "seed {seed}");
            for (dl, wl) in trace.launches().iter().zip(&want) {
                assert_eq!(dl.header, wl.header, "seed {seed}");
                assert_eq!(dl.end, wl.end, "seed {seed}");
                assert_eq!(dl.block_count(), wl.blocks.len(), "seed {seed}");
                assert_eq!(
                    dl.event_count(),
                    wl.blocks.iter().map(|(_, evs)| evs.len()).sum::<usize>(),
                    "seed {seed}"
                );
                for (bv, (wid, wevs)) in dl.blocks().zip(&wl.blocks) {
                    assert_eq!(bv.block_id, *wid, "seed {seed}");
                    assert_eq!(bv.len(), wevs.len(), "seed {seed}");
                    assert_eq!(&bv.to_events(), wevs, "seed {seed}");
                }
            }
        }
    }

    /// Encodes `events` as a one-block launch and decodes it again.
    fn decode_block(events: &[TraceEvent]) -> Trace {
        let spec = GpuSpec::kepler_k40m();
        let buf = SharedBuffer::new();
        let mut w = TraceWriter::new(buf.clone());
        w.launch_begin(&TraceLaunch {
            kernel: "forms",
            grid_blocks: 1,
            executed_blocks: 1,
            threads_per_block: 32,
            smem_bytes: 0,
            regs_per_thread: 32,
            overlap: OverlapMode::Prefetch,
            spec: &spec,
        });
        w.block_events(0, events);
        w.launch_end(&KernelStats::default());
        let (_, err) = w.into_inner();
        assert!(err.is_none());
        Trace::decode(&buf.take()).unwrap()
    }

    fn event_with(mask: LaneMask, addr: impl Fn(usize) -> u64) -> TraceEvent {
        TraceEvent {
            op: TraceOp::GmLd,
            warp: 3,
            mask,
            lane_bytes: 4,
            transactions: 1,
            cycles: 0,
            addrs: std::array::from_fn(|l| if mask.is_active(l) { addr(l) } else { 0 }),
        }
    }

    /// Each edge case round-trips bit for bit, and the decoder picks the
    /// expected form: `Some((base, stride))` for affine, `None` for a row
    /// in the irregular slab.
    #[test]
    fn lane_forms_are_exact_on_edge_cases() {
        let top = u64::MAX - 40;
        let cases = [
            (
                "unit stride",
                event_with(LaneMask::ALL, |l| 4096 + 4 * l as u64),
                Some((4096, 4)),
            ),
            (
                "negative stride",
                event_with(LaneMask::ALL, |l| 1000 - 8 * l as u64),
                Some((1000, (-8i64) as u64)),
            ),
            (
                "wraps past u64::MAX",
                event_with(LaneMask::ALL, |l| top.wrapping_add(16 * l as u64)),
                Some((top, 16)),
            ),
            (
                "broadcast",
                event_with(LaneMask::ALL, |_| 0x1234),
                Some((0x1234, 0)),
            ),
            (
                "single active lane 31",
                event_with(LaneMask(1 << 31), |_| 777),
                Some((777, 0)),
            ),
            (
                "empty mask",
                event_with(LaneMask::NONE, |_| 5),
                Some((0, 0)),
            ),
            (
                "gap does not divide delta",
                event_with(LaneMask(0b1001), |l| 100 + 4 * (l as u64 / 3)),
                None,
            ),
            (
                "affine except the last lane",
                event_with(LaneMask::ALL, |l| {
                    if l == WARP_SIZE - 1 {
                        7
                    } else {
                        64 * l as u64
                    }
                }),
                None,
            ),
        ];
        for (name, ev, want) in cases {
            assert_eq!(affine_form(ev.mask, &ev.addrs), want, "{name}");
            let trace = decode_block(&[ev]);
            let launch = &trace.launches()[0];
            assert_eq!(
                launch.affine_event_count(),
                usize::from(want.is_some()),
                "{name}"
            );
            let got = launch.blocks().next().unwrap().to_events();
            assert_eq!(got, vec![ev], "{name}");
        }
    }

    /// Mixed affine and irregular events keep their issue order, and each
    /// irregular row is found again by its launch-wide index across
    /// blocks.
    #[test]
    fn mixed_forms_keep_issue_order_across_blocks() {
        let mut rng = Rng(0xAFF1);
        let events: Vec<TraceEvent> = (0..64)
            .map(|i| {
                let base = rng.next() % (1 << 40);
                let stride = rng.next() % 64;
                let mask = LaneMask(rng.next() as u32 | 1);
                let mut ev = event_with(mask, |l| base + stride * l as u64);
                if i % 3 == 0 {
                    ev.addrs[0] ^= 1 << 20; // lane 0 is always active
                }
                ev
            })
            .collect();
        let trace = decode_block(&events);
        let launch = &trace.launches()[0];
        assert_eq!(launch.event_count(), 64);
        assert!(launch.affine_event_count() <= 64 - 22);
        let got = launch.blocks().next().unwrap().to_events();
        assert_eq!(got, events);
        assert!(trace.heap_bytes() > 0);
    }

    /// The compact form is where the memory goes: a launch of affine
    /// events holds a fraction of the 32-address rows it replaces.
    #[test]
    fn heap_bytes_counts_the_compact_slabs() {
        let affine: Vec<TraceEvent> = (0..1000)
            .map(|i| event_with(LaneMask::ALL, |l| 4096 * i + 4 * l as u64))
            .collect();
        let trace = decode_block(&affine);
        assert_eq!(trace.launches()[0].affine_event_count(), 1000);
        let row = std::mem::size_of::<WarpAddrs>();
        assert!(
            trace.heap_bytes() < 1000 * row / 4,
            "{}",
            trace.heap_bytes()
        );
        let scattered: Vec<TraceEvent> = (0..1000)
            .map(|i| event_with(LaneMask::ALL, |l| (i * 31 + l as u64 * l as u64) << 3))
            .collect();
        let trace = decode_block(&scattered);
        assert_eq!(trace.launches()[0].affine_event_count(), 0);
        assert!(trace.heap_bytes() >= 1000 * row);
    }

    #[test]
    fn truncated_streams_decode_as_aborted_like_the_streaming_reader() {
        let bytes = random_stream(3);
        // Cut inside the stream: both readers must agree on the prefix.
        for cut in [bytes.len() / 3, bytes.len() / 2, bytes.len() - 1] {
            match (read_launches(&bytes[..cut]), Trace::decode(&bytes[..cut])) {
                (Ok(want), Ok(trace)) => {
                    assert_eq!(trace.launches().len(), want.len(), "cut {cut}");
                    for (dl, wl) in trace.launches().iter().zip(&want) {
                        assert_eq!(dl.end, wl.end, "cut {cut}");
                    }
                }
                (Err(_), Err(_)) => {}
                (a, b) => panic!("readers disagree at cut {cut}: {a:?} vs {b:?}"),
            }
        }
    }

    #[test]
    fn empty_trace_decodes_empty() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&crate::MAGIC);
        bytes.push(crate::VERSION);
        let trace = Trace::decode(&bytes).unwrap();
        assert!(trace.launches().is_empty());
        assert_eq!(trace.total_events(), 0);
    }
}
