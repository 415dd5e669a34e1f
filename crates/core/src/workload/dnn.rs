//! Deep-neural-network layer graphs with exact operation accounting.
//!
//! The experiments need precise MAC / parameter / activation counts: §V's
//! headline claim is a *MAC saving* percentage, the IMC mapper of §IV places
//! *weights* onto crossbar tiles, and the §VI pipeline simulator sizes I/O
//! from *activation* footprints. [`Layer`] encodes each layer's geometry and
//! derives those counts analytically.
//!
//! ```
//! use f2_core::workload::dnn::{Conv2d, Layer};
//!
//! let conv = Conv2d {
//!     in_channels: 3,
//!     out_channels: 8,
//!     kernel: 3,
//!     stride: 1,
//!     padding: 1,
//! };
//! let layer = Layer::conv2d("conv1", conv, 32, 32);
//! // 32x32x8 outputs, each needing 3x3x3 MACs.
//! assert_eq!(layer.macs(), 32 * 32 * 8 * 3 * 3 * 3);
//! ```

use crate::error::CoreError;
use crate::Result;
use std::fmt;

/// 2-D convolution geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Conv2d {
    /// Input channel count.
    pub in_channels: usize,
    /// Output channel count.
    pub out_channels: usize,
    /// Square kernel side.
    pub kernel: usize,
    /// Stride (same in both dimensions).
    pub stride: usize,
    /// Zero padding (same on all sides).
    pub padding: usize,
}

impl Conv2d {
    /// Output spatial size for an input of side `n`.
    pub fn out_size(&self, n: usize) -> usize {
        (n + 2 * self.padding - self.kernel) / self.stride + 1
    }
}

/// 2-D transposed convolution (deconvolution) geometry, the §V upscaling
/// layer. `stride` here is the upsampling factor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TConv2d {
    /// Input channel count.
    pub in_channels: usize,
    /// Output channel count.
    pub out_channels: usize,
    /// Square kernel side.
    pub kernel: usize,
    /// Upsampling stride.
    pub stride: usize,
}

impl TConv2d {
    /// Output spatial size for an input of side `n` (no output padding,
    /// "same"-style cropping as in FSRCNN).
    pub fn out_size(&self, n: usize) -> usize {
        n * self.stride
    }
}

/// Kind and geometry of one network layer.
#[derive(Debug, Clone, PartialEq)]
pub enum LayerKind {
    /// Standard convolution.
    Conv2d(Conv2d),
    /// Transposed convolution.
    TConv2d(TConv2d),
    /// Fully-connected layer: `in_features × out_features`.
    Dense {
        /// Input feature count.
        in_features: usize,
        /// Output feature count.
        out_features: usize,
    },
    /// Max/average pooling with square window `window` and equal stride.
    Pool {
        /// Pooling window side.
        window: usize,
    },
    /// Elementwise activation (ReLU/PReLU-class; one op per element).
    Activation,
    /// SoftMax over the channel dimension.
    Softmax,
}

/// A concrete layer instance: kind plus the input spatial size it runs at.
#[derive(Debug, Clone, PartialEq)]
pub struct Layer {
    name: String,
    kind: LayerKind,
    in_height: usize,
    in_width: usize,
}

impl Layer {
    /// Creates a convolution layer running on `h × w` inputs.
    pub fn conv2d(name: &str, conv: Conv2d, h: usize, w: usize) -> Self {
        Self {
            name: name.to_string(),
            kind: LayerKind::Conv2d(conv),
            in_height: h,
            in_width: w,
        }
    }

    /// Creates a transposed-convolution layer running on `h × w` inputs.
    pub fn tconv2d(name: &str, tconv: TConv2d, h: usize, w: usize) -> Self {
        Self {
            name: name.to_string(),
            kind: LayerKind::TConv2d(tconv),
            in_height: h,
            in_width: w,
        }
    }

    /// Creates a dense layer (spatial size 1×1 by definition).
    pub fn dense(name: &str, in_features: usize, out_features: usize) -> Self {
        Self {
            name: name.to_string(),
            kind: LayerKind::Dense {
                in_features,
                out_features,
            },
            in_height: 1,
            in_width: 1,
        }
    }

    /// Creates a generic layer of any kind.
    pub fn with_kind(name: &str, kind: LayerKind, h: usize, w: usize) -> Self {
        Self {
            name: name.to_string(),
            kind,
            in_height: h,
            in_width: w,
        }
    }

    /// Layer name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Layer kind and geometry.
    pub fn kind(&self) -> &LayerKind {
        &self.kind
    }

    /// Output spatial dimensions `(height, width)`.
    pub fn out_dims(&self) -> (usize, usize) {
        match &self.kind {
            LayerKind::Conv2d(c) => (c.out_size(self.in_height), c.out_size(self.in_width)),
            LayerKind::TConv2d(t) => (t.out_size(self.in_height), t.out_size(self.in_width)),
            LayerKind::Dense { .. } => (1, 1),
            LayerKind::Pool { window } => (self.in_height / window, self.in_width / window),
            LayerKind::Activation | LayerKind::Softmax => (self.in_height, self.in_width),
        }
    }

    /// Output channel count (input channels for channel-preserving layers
    /// are not tracked here; those layers report 0 and inherit from their
    /// predecessor inside [`DnnModel`]).
    fn out_channels(&self) -> Option<usize> {
        match &self.kind {
            LayerKind::Conv2d(c) => Some(c.out_channels),
            LayerKind::TConv2d(t) => Some(t.out_channels),
            LayerKind::Dense { out_features, .. } => Some(*out_features),
            _ => None,
        }
    }

    /// Exact multiply-accumulate count of the layer.
    pub fn macs(&self) -> u64 {
        match &self.kind {
            LayerKind::Conv2d(c) => {
                let (oh, ow) = self.out_dims();
                (oh * ow * c.out_channels * c.kernel * c.kernel * c.in_channels) as u64
            }
            LayerKind::TConv2d(t) => {
                // Gather formulation: every output pixel accumulates
                // kernel²/stride² taps per input channel on average; the exact
                // count equals in_pixels × k² × Cin × Cout (scatter view).
                (self.in_height
                    * self.in_width
                    * t.kernel
                    * t.kernel
                    * t.in_channels
                    * t.out_channels) as u64
            }
            LayerKind::Dense {
                in_features,
                out_features,
            } => (*in_features * *out_features) as u64,
            LayerKind::Pool { .. } | LayerKind::Activation | LayerKind::Softmax => 0,
        }
    }

    /// Trainable parameter count (weights + biases).
    pub fn params(&self) -> u64 {
        match &self.kind {
            LayerKind::Conv2d(c) => {
                (c.kernel * c.kernel * c.in_channels * c.out_channels + c.out_channels) as u64
            }
            LayerKind::TConv2d(t) => {
                (t.kernel * t.kernel * t.in_channels * t.out_channels + t.out_channels) as u64
            }
            LayerKind::Dense {
                in_features,
                out_features,
            } => (*in_features * *out_features + *out_features) as u64,
            _ => 0,
        }
    }
}

impl fmt::Display for Layer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({:?})", self.name, self.kind)
    }
}

/// A feed-forward DNN model: an ordered sequence of layers.
#[derive(Debug, Clone, PartialEq)]
pub struct DnnModel {
    name: String,
    layers: Vec<Layer>,
}

impl DnnModel {
    /// Creates a model from a layer sequence.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidWorkload`] if `layers` is empty or if
    /// consecutive weighted layers have mismatched channel counts.
    pub fn new(name: &str, layers: Vec<Layer>) -> Result<Self> {
        if layers.is_empty() {
            return Err(CoreError::InvalidWorkload(format!(
                "model `{name}` has no layers"
            )));
        }
        let mut prev_channels: Option<usize> = None;
        for layer in &layers {
            let in_ch = match layer.kind() {
                LayerKind::Conv2d(c) => Some(c.in_channels),
                LayerKind::TConv2d(t) => Some(t.in_channels),
                _ => None,
            };
            if let (Some(expect), Some(prev)) = (in_ch, prev_channels) {
                if expect != prev {
                    return Err(CoreError::InvalidWorkload(format!(
                        "layer `{}` expects {expect} input channels but predecessor produces {prev}",
                        layer.name()
                    )));
                }
            }
            if let Some(out) = layer.out_channels() {
                prev_channels = Some(out);
            }
        }
        Ok(Self {
            name: name.to_string(),
            layers,
        })
    }

    /// Model name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The layers, in execution order.
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// Total MAC count across all layers.
    pub fn total_macs(&self) -> u64 {
        self.layers.iter().map(Layer::macs).sum()
    }

    /// Total parameter count across all layers.
    pub fn total_params(&self) -> u64 {
        self.layers.iter().map(Layer::params).sum()
    }
}

/// Builds the FSRCNN(d, s, m) super-resolution network of Dong et al.
/// (ECCV'16) for an `h × w` single-channel input and 2× upscaling — the §V
/// evaluation model. `d` = LR feature dimension, `s` = shrinking filters,
/// `m` = mapping depth.
///
/// Structure: 5×5 feature extraction (1→d), 1×1 shrink (d→s), m× 3×3 mapping
/// (s→s), 1×1 expand (s→d), 9×9 stride-2 transposed conv (d→1).
///
/// # Errors
///
/// Returns [`CoreError::InvalidParameter`] if any of `d`, `s` is zero.
pub fn fsrcnn(d: usize, s: usize, m: usize, h: usize, w: usize) -> Result<DnnModel> {
    if d == 0 || s == 0 {
        return Err(CoreError::InvalidParameter {
            name: "d/s".to_string(),
            reason: "FSRCNN feature dimensions must be positive".to_string(),
        });
    }
    let mut layers = vec![Layer::conv2d(
        "feature_extract",
        Conv2d {
            in_channels: 1,
            out_channels: d,
            kernel: 5,
            stride: 1,
            padding: 2,
        },
        h,
        w,
    )];
    layers.push(Layer::conv2d(
        "shrink",
        Conv2d {
            in_channels: d,
            out_channels: s,
            kernel: 1,
            stride: 1,
            padding: 0,
        },
        h,
        w,
    ));
    for i in 0..m {
        layers.push(Layer::conv2d(
            &format!("map{i}"),
            Conv2d {
                in_channels: s,
                out_channels: s,
                kernel: 3,
                stride: 1,
                padding: 1,
            },
            h,
            w,
        ));
    }
    layers.push(Layer::conv2d(
        "expand",
        Conv2d {
            in_channels: s,
            out_channels: d,
            kernel: 1,
            stride: 1,
            padding: 0,
        },
        h,
        w,
    ));
    layers.push(Layer::tconv2d(
        "deconv",
        TConv2d {
            in_channels: d,
            out_channels: 1,
            kernel: 9,
            stride: 2,
        },
        h,
        w,
    ));
    DnnModel::new(&format!("FSRCNN({d},{s},{m})"), layers)
}

/// Builds a small U-Net-style segmentation model for `h × w` inputs — the
/// §VI medical-image-segmentation workload proxy.
///
/// # Errors
///
/// Returns [`CoreError::InvalidParameter`] if `h` or `w` is not divisible by 4
/// (two pooling stages).
pub fn segmentation_unet(h: usize, w: usize) -> Result<DnnModel> {
    if !h.is_multiple_of(4) || !w.is_multiple_of(4) {
        return Err(CoreError::InvalidParameter {
            name: "h/w".to_string(),
            reason: "input dims must be divisible by 4".to_string(),
        });
    }
    let c = |i, o| Conv2d {
        in_channels: i,
        out_channels: o,
        kernel: 3,
        stride: 1,
        padding: 1,
    };
    let layers = vec![
        Layer::conv2d("enc1", c(1, 16), h, w),
        Layer::with_kind("pool1", LayerKind::Pool { window: 2 }, h, w),
        Layer::conv2d("enc2", c(16, 32), h / 2, w / 2),
        Layer::with_kind("pool2", LayerKind::Pool { window: 2 }, h / 2, w / 2),
        Layer::conv2d("bottleneck", c(32, 64), h / 4, w / 4),
        Layer::tconv2d(
            "up1",
            TConv2d {
                in_channels: 64,
                out_channels: 32,
                kernel: 2,
                stride: 2,
            },
            h / 4,
            w / 4,
        ),
        Layer::conv2d("dec1", c(32, 16), h / 2, w / 2),
        Layer::tconv2d(
            "up2",
            TConv2d {
                in_channels: 16,
                out_channels: 16,
                kernel: 2,
                stride: 2,
            },
            h / 2,
            w / 2,
        ),
        Layer::conv2d("out", c(16, 2), h, w),
    ];
    DnnModel::new("SegUNet", layers)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conv_out_size() {
        let c = Conv2d {
            in_channels: 1,
            out_channels: 1,
            kernel: 3,
            stride: 1,
            padding: 1,
        };
        assert_eq!(c.out_size(32), 32);
        let s2 = Conv2d { stride: 2, ..c };
        assert_eq!(s2.out_size(32), 16);
        let nopad = Conv2d { padding: 0, ..c };
        assert_eq!(nopad.out_size(32), 30);
    }

    #[test]
    fn conv_macs_formula() {
        let c = Conv2d {
            in_channels: 4,
            out_channels: 8,
            kernel: 3,
            stride: 1,
            padding: 1,
        };
        let l = Layer::conv2d("c", c, 10, 10);
        assert_eq!(l.macs(), 10 * 10 * 8 * 9 * 4);
        assert_eq!(l.params(), (9 * 4 * 8 + 8) as u64);
    }

    #[test]
    fn tconv_macs_formula() {
        let t = TConv2d {
            in_channels: 4,
            out_channels: 2,
            kernel: 9,
            stride: 2,
        };
        let l = Layer::tconv2d("t", t, 10, 10);
        assert_eq!(l.macs(), 100 * 81 * 4 * 2);
        assert_eq!(l.out_dims(), (20, 20));
    }

    #[test]
    fn tconv_has_higher_complexity_than_conv_per_output_pixel() {
        // §V: "A TCONV layer has a computational complexity significantly
        // higher than a traditional CONV layer". Compare same-kernel layers
        // producing the same output size.
        let conv = Layer::conv2d(
            "c",
            Conv2d {
                in_channels: 8,
                out_channels: 8,
                kernel: 3,
                stride: 1,
                padding: 1,
            },
            20,
            20,
        );
        let tconv = Layer::tconv2d(
            "t",
            TConv2d {
                in_channels: 8,
                out_channels: 8,
                kernel: 3,
                stride: 2,
            },
            10,
            10,
        );
        let conv_per_px = conv.macs() as f64 / (20.0 * 20.0);
        let tconv_per_px = tconv.macs() as f64 / (20.0 * 20.0);
        // Same total here; the cost blowup comes from the larger kernels
        // TCONV needs (9×9 in FSRCNN vs 3×3 mapping convs):
        assert!(tconv_per_px <= conv_per_px);
        let fsr = fsrcnn(25, 5, 1, 100, 100).expect("valid fsrcnn");
        let deconv = fsr
            .layers()
            .iter()
            .find(|l| l.name() == "deconv")
            .expect("deconv layer");
        let map = fsr
            .layers()
            .iter()
            .find(|l| l.name() == "map0")
            .expect("map layer");
        assert!(deconv.macs() > map.macs());
    }

    #[test]
    fn dense_counts() {
        let l = Layer::dense("fc", 128, 10);
        assert_eq!(l.macs(), 1280);
        assert_eq!(l.params(), 1290);
    }

    #[test]
    fn model_rejects_channel_mismatch() {
        let l1 = Layer::conv2d(
            "a",
            Conv2d {
                in_channels: 1,
                out_channels: 8,
                kernel: 3,
                stride: 1,
                padding: 1,
            },
            16,
            16,
        );
        let l2 = Layer::conv2d(
            "b",
            Conv2d {
                in_channels: 4, // mismatch: predecessor produces 8
                out_channels: 8,
                kernel: 3,
                stride: 1,
                padding: 1,
            },
            16,
            16,
        );
        assert!(DnnModel::new("bad", vec![l1, l2]).is_err());
    }

    #[test]
    fn model_rejects_empty() {
        assert!(DnnModel::new("empty", vec![]).is_err());
    }

    #[test]
    fn fsrcnn_small_vs_large_macs() {
        // §V: FSRCNN(25,5,1) is the lightweight model, FSRCNN(56,12,4) the
        // baseline; the baseline must cost several times more MACs.
        let small = fsrcnn(25, 5, 1, 1080 / 4, 1920 / 4).expect("valid");
        let large = fsrcnn(56, 12, 4, 1080 / 4, 1920 / 4).expect("valid");
        assert!(large.total_macs() > 2 * small.total_macs());
        assert!(large.total_params() > 2 * small.total_params());
    }

    #[test]
    fn fsrcnn_structure() {
        let m = fsrcnn(25, 5, 3, 64, 64).expect("valid");
        assert_eq!(m.layers().len(), 2 + 3 + 2);
        assert_eq!(m.name(), "FSRCNN(25,5,3)");
    }

    #[test]
    fn fsrcnn_rejects_zero_dims() {
        assert!(fsrcnn(0, 5, 1, 64, 64).is_err());
    }

    #[test]
    fn unet_builds_and_counts() {
        let m = segmentation_unet(128, 128).expect("valid");
        assert!(m.total_macs() > 0);
        assert!(m.total_params() > 0);
        assert!(segmentation_unet(130, 128).is_err());
    }
}
