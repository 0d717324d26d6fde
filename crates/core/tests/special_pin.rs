//! Bit-identity pin for the special-case kernel family.
//!
//! Every storage variant (f32, fp16 with f32 taps, half2, int8) at every
//! instantiable vector factor runs one small problem in `SimMode::Full`;
//! the test pins an FNV-1a digest of the complete [`KernelStats`] and
//! modeled [`Timing`](kconv_sim::Timing) (plus a few counters in the
//! clear, for readable failures) and a digest of the
//! output's `f32` bits. Any change to addressing, masking, access width,
//! tap layout or arithmetic order shows up here.

use kconv_core::{Convolution, SpecialConfig, SpecialConv, Storage};
use kconv_sim::{Gpu, GpuSpec, KernelStats, SimMode};
use kconv_tensor::{random_filters, random_maps, ConvProblem};

fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn kernel(storage: &str, n: usize) -> Box<dyn Convolution> {
    let config = SpecialConfig {
        width: 32,
        height: 4,
        vec_width: n,
    };
    let storage = match storage {
        "f32" => Storage::F32,
        "f16" => Storage::F16,
        "half2" => Storage::Half2,
        "i8" => Storage::I8,
        s => unreachable!("unknown storage {s}"),
    };
    Box::new(SpecialConv { config, storage })
}

/// `(storage, n, spec, fma, gm_ld_tx, gm_st_tx, sm_cycles, cm_requests,
/// stats digest, output digest)`.
type Pin = (
    &'static str,
    usize,
    &'static str,
    u64,
    u64,
    u64,
    u64,
    u64,
    u64,
    u64,
);

#[rustfmt::skip]
const PINS: &[Pin] = &[
    ("f32", 1, "kepler", 46080, 350, 640, 600, 1440, 4397036473606759550, 10055186232481938275),
    ("f32", 2, "kepler", 46080, 350, 640, 480, 1440, 18057771634540004831, 10055186232481938275),
    ("f32", 4, "kepler", 46080, 340, 640, 480, 1440, 18278046581919861959, 10055186232481938275),
    ("f16", 1, "kepler", 46080, 295, 320, 600, 1440, 1589533693238557256, 3489614400848315328),
    ("f16", 2, "kepler", 46080, 295, 320, 480, 1440, 16554441085251231772, 3489614400848315328),
    ("f16", 4, "kepler", 46080, 290, 320, 480, 1440, 3538007332372833160, 3489614400848315328),
    ("half2", 1, "kepler", 46080, 295, 320, 600, 800, 12062863772272987189, 2241788743978408260),
    ("half2", 2, "kepler", 46080, 295, 320, 480, 800, 7911070945148848949, 2241788743978408260),
    ("half2", 4, "kepler", 46080, 290, 320, 480, 800, 15789399883017974523, 2241788743978408260),
    ("half2", 1, "maxwell", 46080, 295, 320, 600, 800, 93348787974666300, 2241788743978408260),
    ("half2", 2, "maxwell", 46080, 295, 320, 480, 800, 3469171456532915156, 2241788743978408260),
    ("half2", 4, "maxwell", 46080, 290, 320, 480, 800, 1200155957288966228, 2241788743978408260),
    ("i8", 1, "kepler", 46080, 268, 160, 600, 1440, 8693525415270970354, 16349724764437374826),
    ("i8", 2, "kepler", 46080, 268, 160, 480, 1440, 9855837952132386084, 16349724764437374826),
    ("i8", 4, "kepler", 46080, 266, 160, 480, 1440, 4464932216705430740, 16349724764437374826),
    ("i8", 8, "kepler", 46080, 261, 160, 480, 1440, 295183404684648531, 16349724764437374826),
];

#[test]
fn special_family_counters_and_outputs_are_pinned() {
    let problem = ConvProblem::special(40, 2, 3);
    let input = random_maps(1, 40, 40, 41);
    let filters = random_filters(2, 1, 3, 43);
    let cases: &[(&str, usize, &str)] = &[
        ("f32", 1, "kepler"),
        ("f32", 2, "kepler"),
        ("f32", 4, "kepler"),
        ("f16", 1, "kepler"),
        ("f16", 2, "kepler"),
        ("f16", 4, "kepler"),
        ("half2", 1, "kepler"),
        ("half2", 2, "kepler"),
        ("half2", 4, "kepler"),
        ("half2", 1, "maxwell"),
        ("half2", 2, "maxwell"),
        ("half2", 4, "maxwell"),
        ("i8", 1, "kepler"),
        ("i8", 2, "kepler"),
        ("i8", 4, "kepler"),
        ("i8", 8, "kepler"),
    ];
    let mut got = Vec::new();
    for &(storage, n, spec) in cases {
        let spec_v = match spec {
            "kepler" => GpuSpec::kepler_k40m(),
            _ => GpuSpec::maxwell_like(),
        };
        let mut gpu = Gpu::new(spec_v);
        let run = kernel(storage, n)
            .run(&mut gpu, &problem, &input, &filters, SimMode::Full)
            .unwrap_or_else(|e| panic!("{storage} n={n} on {spec}: {e}"));
        let s: KernelStats = run.report.stats;
        got.push((
            storage,
            n,
            spec,
            s.fma_lane_ops,
            s.gm_ld_transactions,
            s.gm_st_transactions,
            s.sm_ld_cycles + s.sm_st_cycles,
            s.cm_requests,
            fnv1a(format!("{s:?} {:?}", run.report.timing).into_bytes()),
            fnv1a(
                run.output
                    .as_slice()
                    .iter()
                    .flat_map(|v| v.to_bits().to_le_bytes()),
            ),
        ));
    }
    if got.as_slice() != PINS {
        for row in &got {
            eprintln!("    {row:?},");
        }
        panic!("special-family counters or outputs moved (actual rows above)");
    }
}
