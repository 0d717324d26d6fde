//! Fuzz-style robustness properties of the KTRC readers.
//!
//! The binary trace format crosses a trust boundary: `trace_report
//! --trace` and the replay tools accept arbitrary files. These tests feed
//! systematically corrupted v1/v2/v3 streams — every truncation prefix,
//! seeded bit flips, seeded byte splices and hostile header varints —
//! through all three reader entry points ([`Trace::decode`], the
//! streaming [`read_trace`] visitor, and [`read_launches`]) and assert
//! the contract: a well-formed result or a typed [`TraceError`] (the same
//! offset and reason from every entry point), never a panic, never an
//! abort-by-allocation, never a hang.

use kconv_sim::{
    GpuSpec, KernelStats, LaneMask, OverlapMode, TraceEvent, TraceLaunch, TraceOp, TraceSink,
    WARP_SIZE,
};
use kconv_tensor::rng::StdRng;
use kconv_trace::varint::write_u64;
use kconv_trace::{
    read_launches, read_trace, SharedBuffer, Trace, TraceError, TraceVisitor, TraceWriter, MAGIC,
    V1, V2,
};

// The wire format is frozen by contract (`format.rs` keeps reading v1/v2
// forever), so the record tags are stable test constants.
const TAG_LAUNCH_BEGIN: u8 = 1;
const TAG_BLOCK: u8 = 2;
const TAG_LAUNCH_END: u8 = 3;

fn event(op: TraceOp, warp: u32, stride: u64, base: u64) -> TraceEvent {
    let mut addrs = [0u64; WARP_SIZE];
    for (lane, a) in addrs.iter_mut().enumerate() {
        *a = base + lane as u64 * stride;
    }
    TraceEvent {
        op,
        warp,
        mask: LaneMask::ALL,
        lane_bytes: 4,
        transactions: 2,
        cycles: 3,
        addrs,
    }
}

/// A current-version (v3) stream produced by the real writer: two
/// launches, mixed ops, a partial mask.
fn v3_stream() -> Vec<u8> {
    let spec = GpuSpec::kepler_k40m();
    let buf = SharedBuffer::new();
    let mut w = TraceWriter::new(buf.clone());
    for kernel in ["alpha", "beta"] {
        w.launch_begin(&TraceLaunch {
            kernel,
            grid_blocks: 2,
            executed_blocks: 2,
            threads_per_block: 64,
            smem_bytes: 2048,
            regs_per_thread: 32,
            overlap: OverlapMode::Prefetch,
            spec: &spec,
        });
        let mut partial = event(TraceOp::SmLd, 1, 8, 512);
        partial.mask = LaneMask(0x00ff_00ff);
        w.block_events(0, &[event(TraceOp::GmLd, 0, 4, 4096), partial]);
        w.block_events(1, &[event(TraceOp::GmSt, 2, 4, 1 << 20)]);
        w.launch_end(&KernelStats::default());
    }
    buf.take()
}

fn encode_event(buf: &mut Vec<u8>, ev: &TraceEvent) {
    buf.push(ev.op as u8);
    write_u64(buf, u64::from(ev.warp));
    write_u64(buf, u64::from(ev.mask.0));
    write_u64(buf, u64::from(ev.lane_bytes));
    write_u64(buf, u64::from(ev.transactions));
    write_u64(buf, u64::from(ev.cycles));
    let mut prev: Option<u64> = None;
    for lane in 0..WARP_SIZE {
        if !ev.mask.is_active(lane) {
            continue;
        }
        let addr = ev.addrs[lane];
        match prev {
            None => write_u64(buf, addr),
            Some(p) => {
                let delta = addr.wrapping_sub(p) as i64;
                write_u64(buf, ((delta << 1) ^ (delta >> 63)) as u64);
            }
        }
        prev = Some(addr);
    }
}

/// Hand-encodes a v1 (spec-less) stream — the frozen legacy layout.
fn v1_stream() -> Vec<u8> {
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&MAGIC);
    bytes.push(V1);
    bytes.push(TAG_LAUNCH_BEGIN);
    write_u64(&mut bytes, 2);
    bytes.extend_from_slice(b"v1");
    write_u64(&mut bytes, 2); // grid blocks
    write_u64(&mut bytes, 2); // executed blocks
    write_u64(&mut bytes, 64); // threads per block
    write_u64(&mut bytes, 2048); // smem bytes
    let events = [
        event(TraceOp::GmLd, 0, 4, 4096),
        event(TraceOp::SmSt, 1, 8, 0),
    ];
    bytes.push(TAG_BLOCK);
    write_u64(&mut bytes, 0);
    write_u64(&mut bytes, events.len() as u64);
    for ev in &events {
        encode_event(&mut bytes, ev);
    }
    bytes.push(TAG_LAUNCH_END);
    bytes.push(0); // not aborted
    write_u64(&mut bytes, 777); // fma lane ops
    bytes
}

fn encode_v2_spec(bytes: &mut Vec<u8>, spec: &GpuSpec) {
    write_u64(bytes, spec.name.len() as u64);
    bytes.extend_from_slice(spec.name.as_bytes());
    write_u64(bytes, u64::from(spec.sm_count));
    write_u64(bytes, u64::from(spec.cores_per_sm));
    write_u64(bytes, spec.clock_ghz.to_bits());
    write_u64(bytes, u64::from(spec.smem_banks));
    bytes.push(spec.bank_width.bytes() as u8);
    write_u64(bytes, u64::from(spec.smem_bytes_per_sm));
    write_u64(bytes, u64::from(spec.max_threads_per_sm));
    write_u64(bytes, u64::from(spec.max_blocks_per_sm));
    write_u64(bytes, u64::from(spec.regs_per_sm));
    write_u64(bytes, u64::from(spec.max_smem_per_block));
    write_u64(bytes, spec.gm_bandwidth_gbs.to_bits());
    write_u64(bytes, spec.gm_transaction_bytes);
    write_u64(bytes, spec.gm_store_transaction_bytes);
    write_u64(bytes, spec.cm_bytes);
    write_u64(bytes, spec.cm_line_bytes);
    write_u64(bytes, u64::from(spec.latency_hiding_warps));
    write_u64(bytes, spec.issue_efficiency.to_bits());
}

/// Hand-encodes a v2 stream — the frozen pre-`ro_cache_bytes` layout.
/// Ends mid-launch so the synthesized-abort path is part of the corpus.
fn v2_stream() -> Vec<u8> {
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&MAGIC);
    bytes.push(V2);
    bytes.push(TAG_LAUNCH_BEGIN);
    write_u64(&mut bytes, 2);
    bytes.extend_from_slice(b"v2");
    write_u64(&mut bytes, 1); // grid blocks
    write_u64(&mut bytes, 1); // executed blocks
    write_u64(&mut bytes, 64); // threads per block
    write_u64(&mut bytes, 2048); // smem bytes
    write_u64(&mut bytes, 40); // regs per thread
    bytes.push(OverlapMode::Moderate.as_u8());
    encode_v2_spec(&mut bytes, &GpuSpec::kepler_k40m());
    let events = [event(TraceOp::SmLd, 3, 8, 64)];
    bytes.push(TAG_BLOCK);
    write_u64(&mut bytes, 0);
    write_u64(&mut bytes, events.len() as u64);
    for ev in &events {
        encode_event(&mut bytes, ev);
    }
    bytes
}

fn corpus() -> Vec<(&'static str, Vec<u8>)> {
    vec![
        ("v1", v1_stream()),
        ("v2", v2_stream()),
        ("v3", v3_stream()),
    ]
}

/// A visitor that exercises the streaming path and asserts its delivery
/// contract: events only inside an open block of an open launch, and
/// never more per block than the header claimed.
#[derive(Default)]
struct Probe {
    launches_open: u64,
    launches_closed: u64,
    claimed: u64,
    delivered: u64,
    events_total: u64,
}

impl TraceVisitor for Probe {
    fn launch_begin(&mut self, _header: &kconv_trace::LaunchHeader) {
        self.launches_open += 1;
    }
    fn block_begin(&mut self, _block_id: u64, event_count: u64) {
        assert!(
            self.launches_open > self.launches_closed,
            "block outside launch"
        );
        self.claimed = event_count;
        self.delivered = 0;
    }
    fn event(&mut self, _block_id: u64, _ev: &TraceEvent) {
        self.delivered += 1;
        self.events_total += 1;
        assert!(
            self.delivered <= self.claimed,
            "more events than the block claimed"
        );
    }
    fn launch_end(&mut self, _end: &kconv_trace::LaunchEnd) {
        self.launches_closed += 1;
    }
}

/// The offset and reason of a failed read; `None` when it succeeded.
fn failure<T>(result: &Result<T, TraceError>) -> Option<(usize, String)> {
    match result {
        Ok(_) => None,
        Err(TraceError::Malformed { offset, reason }) => Some((*offset, reason.clone())),
        Err(e) => panic!("an in-memory read failed with an i/o error: {e}"),
    }
}

/// Runs all three reader entry points on `bytes`; each must return a
/// typed result, and a rejection must be the same error (offset and
/// reason) from every path. The return value is whether every path
/// accepted it.
fn decode_all(bytes: &[u8]) -> bool {
    let a = failure(&Trace::decode(bytes));
    let b = failure(&read_launches(bytes));
    let mut probe = Probe::default();
    let c = failure(&read_trace(bytes, &mut probe));
    assert_eq!(a, b, "Trace::decode and read_launches must fail alike");
    assert_eq!(b, c, "read_launches and read_trace must fail alike");
    a.is_none()
}

#[test]
fn every_truncation_prefix_is_typed() {
    for (name, bytes) in corpus() {
        assert!(decode_all(&bytes), "{name}: intact stream must decode");
        for cut in 0..bytes.len() {
            // Ok (a clean record boundary synthesizes an aborted launch)
            // or Err — either way typed, never a panic.
            decode_all(&bytes[..cut]);
        }
    }
}

#[test]
fn seeded_bit_flips_never_panic() {
    let mut rng = StdRng::seed_from_u64(0xC0FFEE);
    for (name, bytes) in corpus() {
        let mut accepted = 0u32;
        for _ in 0..600 {
            let mut m = bytes.clone();
            let at = rng.gen_range(0..m.len());
            m[at] ^= 1 << rng.gen_range(0..8);
            if decode_all(&m) {
                accepted += 1;
            }
        }
        // Some single-bit flips land in payload values (addresses,
        // counters) and still parse — that's fine; the property under
        // test is absence of panics, not rejection.
        assert!(accepted < 600, "{name}: every corruption accepted?");
    }
}

#[test]
fn seeded_byte_splices_never_panic() {
    let mut rng = StdRng::seed_from_u64(0xDECADE);
    for (_, bytes) in corpus() {
        for _ in 0..200 {
            let mut m = bytes.clone();
            // Overwrite a random short run with random bytes, then cut a
            // random tail — compound corruption.
            let at = rng.gen_range(0..m.len());
            let run = 1 + rng.gen_range(0..8);
            for b in m.iter_mut().skip(at).take(run) {
                *b = (rng.next_u64() & 0xff) as u8;
            }
            let keep = 1 + rng.gen_range(0..m.len());
            m.truncate(keep);
            decode_all(&m);
        }
    }
}

#[test]
fn hostile_event_counts_fail_without_huge_allocation() {
    // A block header claiming up to u64::MAX events backed by zero event
    // bytes: the readers must reject it with a typed error, and the
    // clamped pre-allocation (`RESERVE_EVENTS_MAX`) must keep them from
    // reserving terabytes first (an unclamped reserve aborts the process,
    // which this test would report as a crash, not a failure).
    for claim in [
        kconv_trace::RESERVE_EVENTS_MAX + 1,
        1 << 40,
        u64::MAX / WARP_SIZE as u64,
        u64::MAX,
    ] {
        let mut bytes = v1_stream();
        // Rebuild the v1 stream's block header with a hostile count and
        // no events after it.
        bytes.truncate(MAGIC.len() + 1);
        bytes.push(TAG_LAUNCH_BEGIN);
        write_u64(&mut bytes, 1);
        bytes.extend_from_slice(b"k");
        for _ in 0..4 {
            write_u64(&mut bytes, 1); // grid/executed/threads/smem
        }
        bytes.push(TAG_BLOCK);
        write_u64(&mut bytes, 0); // block id
        write_u64(&mut bytes, claim); // hostile event count
        assert!(Trace::decode(&bytes).is_err(), "claim {claim}: must reject");
        assert!(read_launches(&bytes).is_err());
        let mut probe = Probe::default();
        assert!(read_trace(&bytes, &mut probe).is_err());
        // The streaming path delivered at most the bytes that existed.
        assert_eq!(probe.events_total, 0);
    }
}

#[test]
fn hostile_name_lengths_fail_typed() {
    for claim in [1u64 << 32, u64::MAX] {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.push(V1);
        bytes.push(TAG_LAUNCH_BEGIN);
        write_u64(&mut bytes, claim); // kernel-name length, no name bytes
        assert!(Trace::decode(&bytes).is_err(), "claim {claim}: must reject");
        assert!(read_launches(&bytes).is_err());
    }
}

#[test]
fn intact_corpus_decodes_identically_across_paths() {
    for (name, bytes) in corpus() {
        let trace = Trace::decode(&bytes).expect("intact stream decodes");
        let launches = read_launches(&bytes).expect("intact stream decodes");
        assert_eq!(trace.launches().len(), launches.len(), "{name}");
        for (d, l) in trace.launches().iter().zip(&launches) {
            assert_eq!(d.header, l.header, "{name}: headers agree");
            assert_eq!(d.end, l.end, "{name}: ends agree");
            let streamed: usize = l.blocks.iter().map(|(_, evs)| evs.len()).sum();
            assert_eq!(d.event_count(), streamed, "{name}: event counts agree");
        }
    }
}
