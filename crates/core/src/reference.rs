//! CPU reference convolution — the correctness oracle for every kernel in
//! this workspace.

use kconv_tensor::{ConvProblem, FeatureMaps, FilterSet};

/// A box of the *output* domain: a slice of filters and a spatial
/// rectangle, in output coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OutRegion {
    /// First filter (output channel) covered.
    pub f0: usize,
    /// Number of filters covered.
    pub nf: usize,
    /// First output row.
    pub y0: usize,
    /// First output column.
    pub x0: usize,
    /// Rows in the region.
    pub h: usize,
    /// Columns in the region.
    pub w: usize,
}

impl OutRegion {
    /// The full output of `problem`.
    pub fn full(problem: &ConvProblem) -> Self {
        OutRegion {
            f0: 0,
            nf: problem.filters,
            y0: 0,
            x0: 0,
            h: problem.out_height(),
            w: problem.out_width(),
        }
    }

    /// Clips the region to the output bounds of `problem`; returns `None`
    /// when nothing remains.
    pub fn clipped(&self, problem: &ConvProblem) -> Option<OutRegion> {
        let (oh, ow) = (problem.out_height(), problem.out_width());
        if self.y0 >= oh || self.x0 >= ow || self.f0 >= problem.filters {
            return None;
        }
        Some(OutRegion {
            f0: self.f0,
            nf: self.nf.min(problem.filters - self.f0),
            y0: self.y0,
            x0: self.x0,
            h: self.h.min(oh - self.y0),
            w: self.w.min(ow - self.x0),
        })
    }
}

/// Direct "valid" convolution on the CPU, `f64` accumulation:
///
/// `out[f][y][x] = sum over (c, i, j) of in[c][y*S+i*D][x*S+j*D] * flt[f][c][i][j]`
/// (stride `S` and dilation `D` from the problem). For a depthwise
/// problem the channel sum collapses to the single channel `f`, read from
/// filter channel slot 0.
///
/// The loop streams rows. For each output filter and output row it zeroes
/// one `w`-long `f64` accumulator row; then for each tap `(c, i, j)`, in
/// that order, it adds `in_row[x*S + j*D] * flt[f][c][i][j]` along the
/// row (a contiguous slice zip for stride 1), so input row `(c, i)` is
/// reused, cache-hot, by all `K` taps `j`; last it rounds the row to `f32`
/// once. The result is bit-identical to summing each output pixel on its
/// own: a product of two `f32` values is exact in `f64`, every pixel adds
/// the same products in the same `(c, i, j)` order starting from `0.0`,
/// and each pixel is rounded to `f32` once. Beyond the output it allocates
/// only that one `f64` row.
///
/// # Panics
///
/// Panics if the shapes do not match `problem`.
pub fn conv_reference(
    problem: &ConvProblem,
    input: &FeatureMaps,
    filters: &FilterSet,
) -> FeatureMaps {
    conv_reference_region(problem, input, filters, OutRegion::full(problem))
}

/// Direct convolution restricted to an output region — cheap validation of
/// sampled kernel executions. The result has shape
/// `region.nf x region.h x region.w` (filter `f0 + f` in slot `f`), and is
/// bit-identical to the same box of [`conv_reference`].
///
/// # Panics
///
/// Panics if the shapes do not match `problem` or the region exceeds the
/// output.
pub fn conv_reference_region(
    problem: &ConvProblem,
    input: &FeatureMaps,
    filters: &FilterSet,
    region: OutRegion,
) -> FeatureMaps {
    assert!(
        problem.matches(input, filters),
        "input/filter shapes do not match {problem}"
    );
    assert!(
        region.y0 + region.h <= problem.out_height()
            && region.x0 + region.w <= problem.out_width()
            && region.f0 + region.nf <= problem.filters,
        "region exceeds output"
    );
    let (k, s, d) = (problem.k, problem.stride, problem.dilation);
    let (h, w) = (region.h, region.w);
    let map_len = problem.height * problem.width;
    let taps_per_filter = problem.channels_per_group() * k * k;
    let mut out = FeatureMaps::zeros(region.nf, h, w);
    if h == 0 || w == 0 {
        return out;
    }
    let mut acc = vec![0.0f64; w];
    for (f, plane) in out.as_mut_slice().chunks_exact_mut(h * w).enumerate() {
        let fo = region.f0 + f;
        let taps = &filters.as_slice()[fo * taps_per_filter..][..taps_per_filter];
        // Depthwise: output channel fo reads only input channel fo, from
        // the filter's single channel slot.
        let channels = if problem.depthwise {
            fo..fo + 1
        } else {
            0..problem.channels
        };
        for (y, out_row) in plane.chunks_exact_mut(w).enumerate() {
            acc.fill(0.0);
            for (fc, c) in channels.clone().enumerate() {
                let map = &input.as_slice()[c * map_len..][..map_len];
                for i in 0..k {
                    let y_in = (region.y0 + y) * s + i * d;
                    let line = &map[y_in * problem.width..][..problem.width];
                    for j in 0..k {
                        let tap = taps[(fc * k + i) * k + j] as f64;
                        let row = &line[region.x0 * s + j * d..][..(w - 1) * s + 1];
                        // `step_by(1)` defeats auto-vectorization; the
                        // plain zip runs 3-4x faster on stride-1 rows.
                        if s == 1 {
                            for (a, &v) in acc.iter_mut().zip(row) {
                                *a += v as f64 * tap;
                            }
                        } else {
                            for (a, &v) in acc.iter_mut().zip(row.iter().step_by(s)) {
                                *a += v as f64 * tap;
                            }
                        }
                    }
                }
            }
            for (o, &a) in out_row.iter_mut().zip(&acc) {
                *o = a as f32;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use kconv_tensor::rng::StdRng;
    use kconv_tensor::{random_filters, random_maps};

    /// The per-pixel definition the row-streamed loop must reproduce bit
    /// for bit: one `f64` sum per output pixel over `(c, i, j)`.
    fn conv_reference_per_pixel(
        problem: &ConvProblem,
        input: &FeatureMaps,
        filters: &FilterSet,
        region: OutRegion,
    ) -> FeatureMaps {
        let k = problem.k;
        let d = problem.dilation;
        let mut out = FeatureMaps::zeros(region.nf, region.h, region.w);
        for f in 0..region.nf {
            for y in 0..region.h {
                for x in 0..region.w {
                    let mut acc = 0.0f64;
                    let (iy, ix) = (
                        (region.y0 + y) * problem.stride,
                        (region.x0 + x) * problem.stride,
                    );
                    let channels = if problem.depthwise {
                        (region.f0 + f)..(region.f0 + f + 1)
                    } else {
                        0..problem.channels
                    };
                    for c in channels {
                        let fc = if problem.depthwise { 0 } else { c };
                        for i in 0..k {
                            for j in 0..k {
                                acc += input.get(c, iy + i * d, ix + j * d) as f64
                                    * filters.get(region.f0 + f, fc, i, j) as f64;
                            }
                        }
                    }
                    out.set(f, y, x, acc as f32);
                }
            }
        }
        out
    }

    /// Test values. Spread values are signed and cover many binades. Powers
    /// are `±2^-24`, `±1` or `±2^24`: their products span more than the
    /// 53 bits of an `f64`, so large terms cancel exactly and the small
    /// ones that survive depend on the summation order, which the final
    /// `f32` rounding would otherwise hide. Both kinds include exact zeros.
    fn test_values(rng: &mut StdRng, n: usize, powers: bool) -> Vec<f32> {
        (0..n)
            .map(|_| {
                if rng.gen_bool(0.05) {
                    0.0
                } else if powers {
                    let sign = if rng.gen_bool(0.5) { -1.0 } else { 1.0 };
                    sign * *rng.choose(&[2.0f32.powi(-24), 1.0, 2.0f32.powi(24)])
                } else {
                    let scale = 2.0f32.powi(rng.gen_range(0..40) as i32 - 20);
                    rng.gen_range_f32(-1.0, 1.0) * scale
                }
            })
            .collect()
    }

    fn assert_bits_eq(got: &FeatureMaps, want: &FeatureMaps, context: &str) {
        assert_eq!(
            (got.channels(), got.height(), got.width()),
            (want.channels(), want.height(), want.width()),
            "{context}: shape"
        );
        for (n, (a, b)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{context}: element {n}: {a} vs {b}"
            );
        }
    }

    #[test]
    fn row_streamed_is_bit_identical_to_per_pixel() {
        let mut rng = StdRng::seed_from_u64(0x5EED);
        for case in 0..400 {
            let k = rng.gen_range(1..8);
            let d = rng.gen_range(1..4);
            let s = rng.gen_range(1..4);
            let span = (k - 1) * d + 1;
            // Every tenth case has the tightest shape: a 1x1 output.
            let (extra_h, extra_w) = if case % 10 == 0 {
                (0, 0)
            } else {
                (rng.gen_range(0..7), rng.gen_range(0..7))
            };
            let channels = rng.gen_range(1..4);
            let depthwise = rng.gen_bool(0.3);
            let nf = if depthwise {
                channels
            } else {
                rng.gen_range(1..4)
            };
            let mut p = ConvProblem::new(channels, span + extra_h, span + extra_w, nf, k)
                .with_dilation(d)
                .with_stride(s);
            if depthwise {
                p = p.depthwise();
            }
            let powers = rng.gen_bool(0.5);
            let input = FeatureMaps::from_vec(
                channels,
                p.height,
                p.width,
                test_values(&mut rng, channels * p.height * p.width, powers),
            );
            let cpg = p.channels_per_group();
            let filters =
                FilterSet::from_vec(nf, cpg, k, test_values(&mut rng, nf * cpg * k * k, powers));
            let context = format!("case {case}: {p} D={d} depthwise={depthwise} powers={powers}");

            let full = OutRegion::full(&p);
            assert_bits_eq(
                &conv_reference(&p, &input, &filters),
                &conv_reference_per_pixel(&p, &input, &filters, full),
                &context,
            );

            // A random box, possibly overhanging the output, clipped back.
            let (oh, ow) = (p.out_height(), p.out_width());
            let region = OutRegion {
                f0: rng.gen_range(0..nf),
                nf: rng.gen_range(0..nf + 2),
                y0: rng.gen_range(0..oh),
                x0: rng.gen_range(0..ow),
                h: rng.gen_range(0..oh + 2),
                w: rng.gen_range(0..ow + 2),
            }
            .clipped(&p)
            .expect("origin inside the output");
            assert_bits_eq(
                &conv_reference_region(&p, &input, &filters, region),
                &conv_reference_per_pixel(&p, &input, &filters, region),
                &format!("{context} region {region:?}"),
            );
        }
    }

    #[test]
    fn identity_one_by_one() {
        let p = ConvProblem::general(4, 1, 1, 1);
        let input = FeatureMaps::from_fn(1, 4, 4, |_, y, x| (y * 4 + x) as f32);
        let filters = FilterSet::from_vec(1, 1, 1, vec![1.0]);
        let out = conv_reference(&p, &input, &filters);
        assert_eq!(out.as_slice(), input.as_slice());
    }

    #[test]
    fn box_filter_sums_patch() {
        let p = ConvProblem::general(3, 1, 1, 3);
        let input = FeatureMaps::from_fn(1, 3, 3, |_, _, _| 1.0);
        let filters = FilterSet::from_vec(1, 1, 3, vec![1.0; 9]);
        let out = conv_reference(&p, &input, &filters);
        assert_eq!(out.get(0, 0, 0), 9.0);
    }

    #[test]
    fn channels_accumulate() {
        let p = ConvProblem::general(2, 3, 1, 1);
        let input = FeatureMaps::from_fn(3, 2, 2, |c, _, _| (c + 1) as f32);
        let filters = FilterSet::from_fn(1, 3, 1, |_, c, _, _| (c + 1) as f32);
        let out = conv_reference(&p, &input, &filters);
        // 1*1 + 2*2 + 3*3 = 14
        assert_eq!(out.get(0, 1, 1), 14.0);
    }

    #[test]
    fn cross_correlation_orientation() {
        // Filter that picks the bottom-right tap: out(0,0) = in(1,1).
        let p = ConvProblem::general(2, 1, 1, 2);
        let input = FeatureMaps::from_fn(1, 2, 2, |_, y, x| (10 * y + x) as f32);
        let mut filters = FilterSet::zeros(1, 1, 2);
        filters.set(0, 0, 1, 1, 1.0);
        let out = conv_reference(&p, &input, &filters);
        assert_eq!(out.get(0, 0, 0), 11.0);
    }

    #[test]
    fn region_matches_full() {
        let p = ConvProblem::general(10, 2, 3, 3);
        let input = random_maps(2, 10, 10, 1);
        let filters = random_filters(3, 2, 3, 2);
        let full = conv_reference(&p, &input, &filters);
        let region = OutRegion {
            f0: 1,
            nf: 2,
            y0: 2,
            x0: 3,
            h: 4,
            w: 5,
        };
        let part = conv_reference_region(&p, &input, &filters, region);
        for f in 0..2 {
            for y in 0..4 {
                for x in 0..5 {
                    assert_eq!(part.get(f, y, x), full.get(1 + f, 2 + y, 3 + x));
                }
            }
        }
    }

    #[test]
    fn strided_reference_subsamples() {
        let p = ConvProblem::general(7, 1, 1, 3).with_stride(2);
        let input = FeatureMaps::from_fn(1, 7, 7, |_, y, x| (y * 7 + x) as f32);
        let mut filters = FilterSet::zeros(1, 1, 3);
        filters.set(0, 0, 0, 0, 1.0); // pick the window origin
        let out = conv_reference(&p, &input, &filters);
        assert_eq!(out.height(), 3);
        assert_eq!(out.get(0, 0, 0), 0.0);
        assert_eq!(out.get(0, 1, 1), (2 * 7 + 2) as f32);
        assert_eq!(out.get(0, 2, 2), (4 * 7 + 4) as f32);
    }

    #[test]
    fn dilated_reference_spreads_taps() {
        // Dilation 2 with a tap at (1, 1) picks in[y + 2][x + 2].
        let p = ConvProblem::general(7, 1, 1, 3).with_dilation(2);
        let input = FeatureMaps::from_fn(1, 7, 7, |_, y, x| (y * 7 + x) as f32);
        let mut filters = FilterSet::zeros(1, 1, 3);
        filters.set(0, 0, 1, 1, 1.0);
        let out = conv_reference(&p, &input, &filters);
        assert_eq!(out.height(), 3);
        assert_eq!(out.get(0, 0, 0), (2 * 7 + 2) as f32);
        assert_eq!(out.get(0, 2, 1), (4 * 7 + 3) as f32);
    }

    #[test]
    fn depthwise_reference_keeps_channels_separate() {
        let p = ConvProblem::general(4, 2, 2, 3).depthwise();
        // Channel c holds the constant c + 1; filter c is a box of c + 1.
        let input = FeatureMaps::from_fn(2, 4, 4, |c, _, _| (c + 1) as f32);
        let filters = FilterSet::from_fn(2, 1, 3, |f, _, _, _| (f + 1) as f32);
        let out = conv_reference(&p, &input, &filters);
        // out[f] = 9 * (f+1)^2 — no cross-channel accumulation.
        assert_eq!(out.get(0, 0, 0), 9.0);
        assert_eq!(out.get(1, 1, 1), 36.0);
    }

    #[test]
    fn depthwise_region_offsets_pick_the_right_channel() {
        let p = ConvProblem::general(6, 3, 3, 3).depthwise();
        let input = random_maps(3, 6, 6, 7);
        let filters = random_filters(3, 1, 3, 9);
        let full = conv_reference(&p, &input, &filters);
        let region = OutRegion {
            f0: 1,
            nf: 2,
            y0: 1,
            x0: 0,
            h: 2,
            w: 3,
        };
        let part = conv_reference_region(&p, &input, &filters, region);
        for f in 0..2 {
            for y in 0..2 {
                for x in 0..3 {
                    assert_eq!(part.get(f, y, x), full.get(1 + f, 1 + y, x));
                }
            }
        }
    }

    #[test]
    fn clipping() {
        let p = ConvProblem::special(10, 1, 3); // 8x8 output
        let r = OutRegion {
            f0: 0,
            nf: 5,
            y0: 6,
            x0: 0,
            h: 4,
            w: 12,
        };
        let c = r.clipped(&p).unwrap();
        assert_eq!((c.h, c.w, c.nf), (2, 8, 1));
        let gone = OutRegion {
            f0: 0,
            nf: 1,
            y0: 8,
            x0: 0,
            h: 1,
            w: 1,
        };
        assert!(gone.clipped(&p).is_none());
        assert_eq!(
            OutRegion::full(&p),
            OutRegion {
                f0: 0,
                nf: 1,
                y0: 0,
                x0: 0,
                h: 8,
                w: 8
            }
        );
    }

    #[test]
    #[should_panic(expected = "region exceeds output")]
    fn region_bounds_checked() {
        let p = ConvProblem::special(4, 1, 3);
        let input = FeatureMaps::zeros(1, 4, 4);
        let filters = FilterSet::zeros(1, 1, 3);
        conv_reference_region(
            &p,
            &input,
            &filters,
            OutRegion {
                f0: 0,
                nf: 1,
                y0: 0,
                x0: 0,
                h: 3,
                w: 2,
            },
        );
    }

    #[test]
    #[should_panic(expected = "input/filter shapes do not match")]
    fn shape_mismatch_checked() {
        let p = ConvProblem::general(5, 2, 3, 3);
        let input = FeatureMaps::zeros(2, 5, 5);
        // One filter channel short of the problem's two.
        let filters = FilterSet::zeros(3, 1, 3);
        conv_reference(&p, &input, &filters);
    }
}
