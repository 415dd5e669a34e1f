//! HTCONV: the hybrid foveated transposed convolution of Fig. 3.
//!
//! §V: "Our approach reduces the computational complexity of TCONV layers by
//! exploiting the concept of foveated rendering of the human visual system:
//! it has high visual acuity in a very small region, called the *fovea*,
//! whereas outside this area it has relatively lower visual acuity."
//!
//! Inside the foveal region all four output phases of each input pixel are
//! computed exactly (4·t² MAC accumulations); outside it only the even-even
//! phase is exact and the other three are linear interpolations of
//! neighbouring even-even outputs — adds, not MACs. [`HtconvStats`] counts
//! both so the ">80% of MACs saved" claim is measurable.

use crate::conv::Kernel;
use crate::image::Image;
use crate::tconv::tconv_at;

/// Circular foveal region in input-image coordinates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FoveaSpec {
    /// Fovea centre row.
    pub center_row: f64,
    /// Fovea centre column.
    pub center_col: f64,
    /// Fovea radius in pixels.
    pub radius: f64,
}

impl FoveaSpec {
    /// A fovea centred in an `h × w` image whose *area* is `fraction` of the
    /// image area (`fraction` is clamped to `[0, 1]`).
    pub fn centered_fraction(h: usize, w: usize, fraction: f64) -> Self {
        let fraction = fraction.clamp(0.0, 1.0);
        let radius = (fraction * (h * w) as f64 / std::f64::consts::PI).sqrt();
        Self {
            center_row: h as f64 / 2.0,
            center_col: w as f64 / 2.0,
            radius,
        }
    }

    /// True if input pixel `(i, j)` lies in the fovea.
    pub fn contains(&self, i: usize, j: usize) -> bool {
        let dr = i as f64 + 0.5 - self.center_row;
        let dc = j as f64 + 0.5 - self.center_col;
        dr * dr + dc * dc <= self.radius * self.radius
    }

    /// Fraction of an `h × w` image inside the fovea (exact pixel count).
    pub fn coverage(&self, h: usize, w: usize) -> f64 {
        let inside = (0..h)
            .flat_map(|i| (0..w).map(move |j| (i, j)))
            .filter(|&(i, j)| self.contains(i, j))
            .count();
        inside as f64 / (h * w) as f64
    }
}

/// Operation counts of one HTCONV invocation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HtconvStats {
    /// Multiply-accumulate operations executed.
    pub macs: u64,
    /// Interpolation additions executed (cheap adder hardware).
    pub interp_adds: u64,
    /// MACs an exact TCONV of the same geometry would execute.
    pub exact_macs: u64,
    /// Input pixels processed in the foveal (exact) mode.
    pub foveal_pixels: u64,
    /// Input pixels processed in the approximate mode.
    pub peripheral_pixels: u64,
}

impl HtconvStats {
    /// Fraction of the exact TCONV's MACs that HTCONV avoided.
    pub fn mac_saving_vs_exact(&self) -> f64 {
        if self.exact_macs == 0 {
            return 0.0;
        }
        1.0 - self.macs as f64 / self.exact_macs as f64
    }
}

/// Runs HTCONV 2× upscaling per the Fig. 3 pseudo-code.
///
/// Returns the `2H × 2W` output and the operation statistics.
pub fn htconv_upscale2x(input: &Image, kernel: &Kernel, fovea: &FoveaSpec) -> (Image, HtconvStats) {
    let t = kernel.size();
    let (h, w) = (input.height(), input.width());
    let mut out = Image::zeros(2 * h, 2 * w);
    let mut stats = HtconvStats {
        exact_macs: (4 * h * w) as u64 * (t * t) as u64,
        ..HtconvStats::default()
    };

    let phase = |r: isize, c: isize| tconv_at(input, kernel, r, c);

    // Pass 1: even-even phase everywhere; all four phases in the fovea.
    for i in 0..h {
        for j in 0..w {
            let (r, c) = (2 * i as isize, 2 * j as isize);
            out.set(2 * i, 2 * j, phase(r, c));
            stats.macs += (t * t) as u64;
            if fovea.contains(i, j) {
                out.set(2 * i + 1, 2 * j, phase(r + 1, c));
                out.set(2 * i, 2 * j + 1, phase(r, c + 1));
                out.set(2 * i + 1, 2 * j + 1, phase(r + 1, c + 1));
                stats.macs += 3 * (t * t) as u64;
                stats.foveal_pixels += 1;
            } else {
                stats.peripheral_pixels += 1;
            }
        }
    }

    // Pass 2: peripheral odd phases by interpolating even-even neighbours
    // (lines 19-22 of the pseudo-code), edge-clamped. The even grid is fully
    // determined by pass 1, so snapshot it before writing odd phases.
    let even_grid = out.clone();
    let even = move |r: isize, c: isize| -> f64 {
        let r = (r.clamp(0, 2 * (h as isize - 1))) as usize;
        let c = (c.clamp(0, 2 * (w as isize - 1))) as usize;
        even_grid.at(r & !1usize, c & !1usize)
    };
    for i in 0..h {
        for j in 0..w {
            if fovea.contains(i, j) {
                continue;
            }
            let (r, c) = (2 * i as isize, 2 * j as isize);
            let v_down = (even(r, c) + even(r + 2, c)) / 2.0;
            let v_right = (even(r, c) + even(r, c + 2)) / 2.0;
            let v_diag = (even(r, c) + even(r, c + 2) + even(r + 2, c) + even(r + 2, c + 2)) / 4.0;
            out.set(2 * i + 1, 2 * j, v_down);
            out.set(2 * i, 2 * j + 1, v_right);
            out.set(2 * i + 1, 2 * j + 1, v_diag);
            stats.interp_adds += 6; // 1 + 1 + 3 additions, +1 rounding shift
        }
    }
    (out, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::psnr::psnr_cropped;
    use crate::tconv::{bicubic_kernel, bilinear_kernel, tconv_upscale2x};

    #[test]
    fn full_fovea_matches_exact_tconv() {
        let img = Image::synthetic(16, 16, 4);
        let fovea = FoveaSpec {
            center_row: 8.0,
            center_col: 8.0,
            radius: 100.0, // covers everything
        };
        let (exact, exact_macs) = tconv_upscale2x(&img, &bilinear_kernel());
        let (hybrid, stats) = htconv_upscale2x(&img, &bilinear_kernel(), &fovea);
        for r in 0..32 {
            for c in 0..32 {
                assert!(
                    (exact.at(r, c) - hybrid.at(r, c)).abs() < 1e-12,
                    "mismatch at ({r},{c})"
                );
            }
        }
        assert_eq!(stats.macs, exact_macs);
        assert_eq!(stats.mac_saving_vs_exact(), 0.0);
        assert_eq!(stats.peripheral_pixels, 0);
    }

    #[test]
    fn empty_fovea_saves_75_percent() {
        let img = Image::synthetic(16, 16, 4);
        let fovea = FoveaSpec {
            center_row: -100.0,
            center_col: -100.0,
            radius: 0.1, // covers nothing
        };
        let (_, stats) = htconv_upscale2x(&img, &bilinear_kernel(), &fovea);
        assert!((stats.mac_saving_vs_exact() - 0.75).abs() < 1e-9);
        assert_eq!(stats.foveal_pixels, 0);
    }

    #[test]
    fn saving_grows_as_fovea_shrinks() {
        let img = Image::synthetic(24, 24, 9);
        let mut last = -1.0;
        for frac in [0.5, 0.3, 0.1, 0.02] {
            let fovea = FoveaSpec::centered_fraction(24, 24, frac);
            let (_, stats) = htconv_upscale2x(&img, &bilinear_kernel(), &fovea);
            assert!(
                stats.mac_saving_vs_exact() > last,
                "saving should grow as fovea shrinks"
            );
            last = stats.mac_saving_vs_exact();
        }
        assert!(last > 0.7);
    }

    #[test]
    fn quality_degrades_gracefully() {
        // The §V claim shape: large MAC saving, modest PSNR reduction. A
        // bicubic (sharpening) kernel is used so the exact odd phases differ
        // from the linear interpolation HTCONV substitutes; PSNR is measured
        // on the interior (SR-standard border crop).
        let hr = Image::synthetic(64, 64, 11);
        let lr = hr.downsample2x().expect("even dims");
        let (exact, _) = tconv_upscale2x(&lr, &bicubic_kernel());
        let fovea = FoveaSpec::centered_fraction(32, 32, 0.15);
        let (hybrid, stats) = htconv_upscale2x(&lr, &bicubic_kernel(), &fovea);
        let psnr_exact = psnr_cropped(&hr, &exact, 4).expect("same dims");
        let psnr_hybrid = psnr_cropped(&hr, &hybrid, 4).expect("same dims");
        assert!(stats.mac_saving_vs_exact() > 0.6);
        let reduction = (psnr_exact - psnr_hybrid) / psnr_exact;
        assert!(
            reduction.abs() < 0.10,
            "PSNR reduction {reduction:.3} should stay under 10% (exact {psnr_exact:.2} dB, hybrid {psnr_hybrid:.2} dB)"
        );
    }

    #[test]
    fn foveal_region_is_exact_in_output() {
        let img = Image::synthetic(16, 16, 5);
        let fovea = FoveaSpec::centered_fraction(16, 16, 0.2);
        let (exact, _) = tconv_upscale2x(&img, &bilinear_kernel());
        let (hybrid, _) = htconv_upscale2x(&img, &bilinear_kernel(), &fovea);
        for i in 0..16 {
            for j in 0..16 {
                if fovea.contains(i, j) {
                    for (dr, dc) in [(0, 0), (1, 0), (0, 1), (1, 1)] {
                        assert!(
                            (exact.at(2 * i + dr, 2 * j + dc) - hybrid.at(2 * i + dr, 2 * j + dc))
                                .abs()
                                < 1e-12,
                            "foveal output must be exact at ({i},{j})+({dr},{dc})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn coverage_matches_fraction() {
        let fovea = FoveaSpec::centered_fraction(64, 64, 0.25);
        let cov = fovea.coverage(64, 64);
        assert!((cov - 0.25).abs() < 0.03, "coverage {cov}");
    }

    #[test]
    fn interp_adds_counted_only_peripheral() {
        let img = Image::synthetic(8, 8, 6);
        let all = FoveaSpec {
            center_row: 4.0,
            center_col: 4.0,
            radius: 100.0,
        };
        let (_, s) = htconv_upscale2x(&img, &bilinear_kernel(), &all);
        assert_eq!(s.interp_adds, 0);
        let none = FoveaSpec {
            center_row: -10.0,
            center_col: -10.0,
            radius: 0.1,
        };
        let (_, s2) = htconv_upscale2x(&img, &bilinear_kernel(), &none);
        assert_eq!(s2.interp_adds, 64 * 6);
    }
}

f2_core::impl_to_json!(HtconvStats {
    macs,
    interp_adds,
    exact_macs,
    foveal_pixels,
    peripheral_pixels
});
