//! # f2-approx
//!
//! Reproduction of the §V thrust of the ICSC Flagship 2 paper:
//! **FPGA-based accelerators for approximate computing**, centred on the
//! HTCONV approximate transposed-convolution layer for super-resolution
//! (Spagnolo et al. \[14\], Fig. 3/Fig. 4 and Table I).
//!
//! * [`image`] — grayscale images, procedural test-scene generation and
//!   downsampling (the offline substitute for the paper's camera images).
//! * [`conv`] — exact convolution / pooling reference kernels with MAC
//!   accounting.
//! * [`tconv`] — exact transposed convolution (the accurate baseline of
//!   Fig. 3) and the bilinear upsampling kernel.
//! * [`htconv`] — the foveated hybrid TCONV of Fig. 3: exact arithmetic
//!   inside the fovea, interpolated elsewhere; tunable foveal radius.
//! * [`softmax`] — the aggressive power-of-two SoftMax approximation of
//!   \[18\].
//! * [`fsrcnn`] — FSRCNN(d,s,m) inference with 16-bit fixed-point
//!   quantisation, in exact and HTCONV variants.
//! * [`psnr`] — quality metrics.
//! * [`fpga_model`] — the architectural implementation model that
//!   regenerates Table I.
//!
//! ```
//! use f2_approx::image::Image;
//! use f2_approx::tconv::bilinear_kernel;
//! use f2_approx::htconv::{htconv_upscale2x, FoveaSpec};
//!
//! let lr = Image::synthetic(32, 32, 7);
//! let fovea = FoveaSpec::centered_fraction(32, 32, 0.3);
//! let (approx, stats) = htconv_upscale2x(&lr, &bilinear_kernel(), &fovea);
//! assert_eq!(approx.height(), 64);
//! assert!(stats.mac_saving_vs_exact() > 0.5);
//! ```

#![deny(unsafe_code)]

pub mod arith;
pub mod conv;
pub mod error;
pub mod experiments;
pub mod fpga_model;
pub mod fsrcnn;
pub mod htconv;
pub mod image;
pub mod psnr;
pub mod softmax;
pub mod tconv;

pub use error::ApproxError;

/// Convenience result alias used across `f2-approx`.
pub type Result<T> = std::result::Result<T, ApproxError>;
