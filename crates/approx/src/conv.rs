//! Exact convolution and pooling reference kernels with MAC accounting.
//!
//! These are the "critical layers typically employed in Deep Learning
//! models" that §V's accelerators target: convolutions, pooling and
//! fully-connected operations. The implementations are bit-faithful
//! references; the MAC counters feed the complexity comparisons of E5.

use crate::image::Image;

/// A square convolution kernel with its coefficients in row-major order.
#[derive(Debug, Clone, PartialEq)]
pub struct Kernel {
    size: usize,
    taps: Vec<f64>,
}

impl Kernel {
    /// Creates a kernel from row-major taps.
    ///
    /// # Panics
    ///
    /// Panics if `taps.len()` is not a perfect square or is empty.
    pub fn new(taps: Vec<f64>) -> Self {
        let size = (taps.len() as f64).sqrt().round() as usize;
        assert!(
            size > 0 && size * size == taps.len(),
            "kernel taps must form a non-empty square"
        );
        Self { size, taps }
    }

    /// Kernel side length.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Tap at `(u, v)`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds on out-of-bounds access.
    pub fn at(&self, u: usize, v: usize) -> f64 {
        debug_assert!(u < self.size && v < self.size, "tap out of bounds");
        self.taps[u * self.size + v]
    }

    /// A normalised box (mean) kernel of side `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t == 0`.
    pub fn boxcar(t: usize) -> Self {
        assert!(t > 0, "kernel side must be positive");
        Self::new(vec![1.0 / (t * t) as f64; t * t])
    }

    /// The 3×3 Laplacian edge-detect kernel.
    pub fn laplacian() -> Self {
        Self::new(vec![0.0, 1.0, 0.0, 1.0, -4.0, 1.0, 0.0, 1.0, 0.0])
    }
}

/// Same-padding 2-D convolution; returns the output image and the MAC count.
pub fn conv2d_same(input: &Image, kernel: &Kernel) -> (Image, u64) {
    let t = kernel.size() as isize;
    let half = t / 2;
    let out = Image::from_fn(input.height(), input.width(), |r, c| {
        let mut acc = 0.0;
        for u in 0..t {
            for v in 0..t {
                acc += kernel.at(u as usize, v as usize)
                    * input.at_padded(r as isize + u - half, c as isize + v - half);
            }
        }
        acc
    });
    let macs = (input.height() * input.width()) as u64 * (t * t) as u64;
    (out, macs)
}

/// `window × window` max pooling with equal stride; truncates ragged edges.
///
/// # Panics
///
/// Panics if `window` is zero or larger than either image dimension.
pub fn max_pool(input: &Image, window: usize) -> Image {
    assert!(
        window > 0 && window <= input.height() && window <= input.width(),
        "pool window must fit in the image"
    );
    Image::from_fn(input.height() / window, input.width() / window, |r, c| {
        let mut m = f64::NEG_INFINITY;
        for u in 0..window {
            for v in 0..window {
                m = m.max(input.at(r * window + u, c * window + v));
            }
        }
        m
    })
}

/// `window × window` average pooling with equal stride.
///
/// # Panics
///
/// Panics if `window` is zero or larger than either image dimension.
pub fn avg_pool(input: &Image, window: usize) -> Image {
    assert!(
        window > 0 && window <= input.height() && window <= input.width(),
        "pool window must fit in the image"
    );
    let n = (window * window) as f64;
    Image::from_fn(input.height() / window, input.width() / window, |r, c| {
        let mut s = 0.0;
        for u in 0..window {
            for v in 0..window {
                s += input.at(r * window + u, c * window + v);
            }
        }
        s / n
    })
}

/// Fully-connected layer `y = W x + b` on flat features; returns output and
/// MAC count.
///
/// # Panics
///
/// Panics if `weights.len() != x.len() * bias.len()`.
pub fn dense(x: &[f64], weights: &[f64], bias: &[f64]) -> (Vec<f64>, u64) {
    let out_dim = bias.len();
    assert_eq!(
        weights.len(),
        x.len() * out_dim,
        "weight count must be in_dim × out_dim"
    );
    let y = (0..out_dim)
        .map(|j| {
            bias[j]
                + x.iter()
                    .enumerate()
                    .map(|(i, &xi)| xi * weights[j * x.len() + i])
                    .sum::<f64>()
        })
        .collect();
    (y, (x.len() * out_dim) as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boxcar_preserves_constant_images() {
        let img = Image::from_fn(8, 8, |_, _| 0.5);
        let (out, macs) = conv2d_same(&img, &Kernel::boxcar(3));
        // Interior pixels see the full window.
        assert!((out.at(4, 4) - 0.5).abs() < 1e-12);
        assert_eq!(macs, 8 * 8 * 9);
    }

    #[test]
    fn laplacian_zero_on_flat_regions() {
        let img = Image::from_fn(8, 8, |_, _| 0.7);
        let (out, _) = conv2d_same(&img, &Kernel::laplacian());
        assert!(out.at(4, 4).abs() < 1e-12);
    }

    #[test]
    fn conv_identity_kernel() {
        let img = Image::synthetic(10, 10, 1);
        let id = Kernel::new(vec![0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0]);
        let (out, _) = conv2d_same(&img, &id);
        for r in 0..10 {
            for c in 0..10 {
                assert!((out.at(r, c) - img.at(r, c)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn max_pool_picks_maximum() {
        let img = Image::from_vec(2, 2, vec![0.1, 0.9, 0.3, 0.2]).expect("valid");
        let p = max_pool(&img, 2);
        assert_eq!(p.at(0, 0), 0.9);
    }

    #[test]
    fn avg_pool_averages() {
        let img = Image::from_vec(2, 2, vec![0.0, 1.0, 1.0, 0.0]).expect("valid");
        let p = avg_pool(&img, 2);
        assert_eq!(p.at(0, 0), 0.5);
    }

    #[test]
    fn dense_matches_hand_computation() {
        let (y, macs) = dense(&[1.0, 2.0], &[1.0, 0.5, -1.0, 1.0], &[0.1, -0.1]);
        assert_eq!(macs, 4);
        assert!((y[0] - 2.1).abs() < 1e-12);
        assert!((y[1] - 0.9).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "square")]
    fn kernel_rejects_non_square() {
        Kernel::new(vec![1.0, 2.0, 3.0]);
    }
}
