//! Exact 2× transposed convolution — the accurate baseline of Fig. 3.
//!
//! The reference follows the pseudo-code's formulation: the input is
//! zero-upsampled onto the even grid (`up(2i, 2j) = I(i, j)`) and each output
//! phase accumulates `K(u, v) · up(·)` taps. The MAC count is the
//! pseudo-code's full window; the sum itself visits only the taps that land
//! on input pixels (polyphase), which gives the same value bit for bit. This
//! is the layer whose "computational complexity significantly higher than a
//! traditional CONV layer" motivates HTCONV.

use crate::conv::Kernel;
use crate::image::Image;

/// The classic 3×3 bilinear upsampling kernel for stride-2 TCONV
/// (`[0.5, 1, 0.5] ⊗ [0.5, 1, 0.5]`): with zero-insertion upsampling it
/// reproduces the input on even pixels and linearly interpolates the rest.
pub fn bilinear_kernel() -> Kernel {
    Kernel::new(vec![0.25, 0.5, 0.25, 0.5, 1.0, 0.5, 0.25, 0.5, 0.25])
}

/// The 7×7 Catmull-Rom (bicubic) upsampling kernel for stride-2 TCONV:
/// separable taps `[-1/16, 0, 9/16, 1, 9/16, 0, -1/16]`. Its negative lobes
/// sharpen edges, so — unlike the bilinear kernel — its odd output phases
/// genuinely differ from the linear interpolation HTCONV substitutes,
/// exposing the accuracy cost of the approximation.
pub fn bicubic_kernel() -> Kernel {
    let taps_1d = [-0.0625, 0.0, 0.5625, 1.0, 0.5625, 0.0, -0.0625];
    let mut taps = Vec::with_capacity(49);
    for u in taps_1d {
        for v in taps_1d {
            taps.push(u * v);
        }
    }
    Kernel::new(taps)
}

/// The taps `u` of `0..t`, in order, for which `base + u` is an even
/// coordinate inside `0..2n`: the zero-upsampled positions that hold an
/// input pixel.
fn phase_taps(base: isize, t: usize, n: usize) -> impl Iterator<Item = usize> + Clone {
    let first = (-base).max(0);
    let first = first + (base + first).rem_euclid(2);
    let end = (2 * n as isize - base).clamp(0, t as isize);
    (first as usize..end as usize).step_by(2)
}

/// One output pixel `(r, c)` of the stride-2 transposed convolution:
/// `Σ K(u, v) · up(r + u - t/2, c + v - t/2)` over the zero-upsampled input
/// `up`, in `(u, v)` order. Only the taps that land on an input pixel are
/// visited. Every other term is `K(u, v) · 0.0 = ±0.0`, and from `+0.0` the
/// sum never becomes `-0.0`, so adding it would change no bit (for a finite
/// kernel).
pub(crate) fn tconv_at(input: &Image, kernel: &Kernel, r: isize, c: isize) -> f64 {
    let t = kernel.size();
    let half = (t / 2) as isize;
    let (row0, col0) = (r - half, c - half);
    let cols = phase_taps(col0, t, input.width());
    let mut acc = 0.0;
    for u in phase_taps(row0, t, input.height()) {
        let i = (row0 + u as isize) as usize / 2;
        for v in cols.clone() {
            acc += kernel.at(u, v) * input.at(i, (col0 + v as isize) as usize / 2);
        }
    }
    acc
}

/// Exact transposed convolution with stride 2 per the Fig. 3 accurate
/// branch; returns the `2H × 2W` output and the MAC count (every output
/// pixel accumulates the full `t × t` window, as the pseudo-code does).
pub fn tconv_upscale2x(input: &Image, kernel: &Kernel) -> (Image, u64) {
    let t = kernel.size();
    let (h, w) = (input.height(), input.width());
    let out = Image::from_fn(2 * h, 2 * w, |r, c| {
        tconv_at(input, kernel, r as isize, c as isize)
    });
    let macs = (4 * h * w) as u64 * (t * t) as u64;
    (out, macs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::psnr::psnr;

    #[test]
    fn bilinear_preserves_even_pixels() {
        let img = Image::synthetic(8, 8, 2);
        let (up, _) = tconv_upscale2x(&img, &bilinear_kernel());
        for r in 0..8 {
            for c in 0..8 {
                assert!(
                    (up.at(2 * r, 2 * c) - img.at(r, c)).abs() < 1e-12,
                    "even pixel ({r},{c}) not preserved"
                );
            }
        }
    }

    #[test]
    fn bilinear_interpolates_midpoints() {
        let img = Image::from_vec(1, 2, vec![0.0, 1.0]).expect("valid");
        let (up, _) = tconv_upscale2x(&img, &bilinear_kernel());
        // Midpoint between 0 and 1 is 0.5.
        assert!((up.at(0, 1) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn mac_count_formula() {
        let img = Image::zeros(4, 6);
        let (_, macs) = tconv_upscale2x(&img, &bilinear_kernel());
        assert_eq!(macs, 4 * 4 * 6 * 9);
    }

    #[test]
    fn upscale_then_downsample_recovers_image() {
        let img = Image::synthetic(16, 16, 3);
        let (up, _) = tconv_upscale2x(&img, &bilinear_kernel());
        let down = up.downsample2x().expect("even dims");
        // Bilinear up + box down is close to identity on smooth content
        // (zero padding at the border and box smoothing cap the PSNR).
        assert!(psnr(&img, &down).expect("same dims") > 20.0);
    }

    #[test]
    fn bicubic_preserves_even_pixels_and_sharpens() {
        let img = Image::synthetic(12, 12, 8);
        let (up, _) = tconv_upscale2x(&img, &bicubic_kernel());
        for r in 2..10 {
            for c in 2..10 {
                assert!(
                    (up.at(2 * r, 2 * c) - img.at(r, c)).abs() < 1e-12,
                    "even pixel ({r},{c}) not preserved by bicubic"
                );
            }
        }
        // Odd phases differ from pure linear interpolation on edge content.
        let (lin, _) = tconv_upscale2x(&img, &bilinear_kernel());
        let diff: f64 = (0..24)
            .flat_map(|r| (0..24).map(move |c| (r, c)))
            .map(|(r, c)| (up.at(r, c) - lin.at(r, c)).abs())
            .sum();
        assert!(diff > 0.1, "bicubic must differ from bilinear, diff {diff}");
    }

    /// The pseudo-code's zero-upsampled image `up` at signed coordinates:
    /// `I(i, j)` when both coordinates are even and in range, zero
    /// otherwise.
    fn up_at(input: &Image, r: isize, c: isize) -> f64 {
        if r < 0 || c < 0 || r % 2 != 0 || c % 2 != 0 {
            return 0.0;
        }
        input.at_padded(r / 2, c / 2)
    }

    /// A value that is zero, negative or positive.
    fn signed_value(g: &mut f2_core::ptest::Gen) -> f64 {
        match g.u8() % 4 {
            0 => 0.0,
            1 => -0.0,
            2 => -g.f64_in(0.0, 2.0),
            _ => g.f64_in(0.0, 2.0),
        }
    }

    f2_core::ptest! {
        /// `tconv_at` equals the full `t × t` window sum over the
        /// zero-upsampled image, bit for bit, at every output coordinate.
        fn tconv_at_matches_the_full_window_sum(g) {
            let (h, w) = (g.usize_in(1..10), g.usize_in(1..10));
            let pixels = (0..h * w).map(|_| signed_value(g)).collect();
            let input = Image::from_vec(h, w, pixels).expect("h * w pixels");
            let t = g.usize_in(1..8);
            let kernel = Kernel::new((0..t * t).map(|_| signed_value(g)).collect());
            let half = (t / 2) as isize;
            for r in 0..2 * h as isize {
                for c in 0..2 * w as isize {
                    let mut want = 0.0;
                    for u in 0..t {
                        for v in 0..t {
                            want += kernel.at(u, v)
                                * up_at(&input, r + u as isize - half, c + v as isize - half);
                        }
                    }
                    let got = tconv_at(&input, &kernel, r, c);
                    assert_eq!(got.to_bits(), want.to_bits(), "{h}x{w}, t {t}, ({r}, {c})");
                }
            }
        }
    }

    #[test]
    fn output_dims_double() {
        let img = Image::zeros(5, 7);
        let (up, _) = tconv_upscale2x(&img, &bilinear_kernel());
        assert_eq!(up.height(), 10);
        assert_eq!(up.width(), 14);
    }
}
