//! Layer-level operator models: FLOPs, parameters, output shapes.
//!
//! FLOPs follow the 2×MAC convention (one multiply-accumulate = 2 FLOPs),
//! matching how ResNet-50 is usually quoted at ≈8.2 GFLOPs.

use crate::tensor::TensorShape;

/// One operator in a model graph.
#[derive(Debug, Clone, PartialEq)]
pub enum Layer {
    /// 2-D convolution (+ folded batch-norm and activation).
    Conv2d {
        /// Input shape.
        input: TensorShape,
        /// Output channels.
        out_channels: usize,
        /// Square kernel size.
        kernel: usize,
        /// Stride.
        stride: usize,
        /// Number of groups (1 = dense).
        groups: usize,
    },
    /// Max/avg pooling.
    Pool {
        /// Input shape.
        input: TensorShape,
        /// Kernel and stride (square, non-overlapping approximation).
        kernel: usize,
    },
    /// Fully connected layer.
    Dense {
        /// Input features.
        in_features: usize,
        /// Output features.
        out_features: usize,
    },
    /// Multi-head self-attention (one transformer block's attention part).
    Attention {
        /// Sequence length.
        seq_len: usize,
        /// Hidden size.
        hidden: usize,
    },
    /// Transformer feed-forward network (two dense layers, 4× expansion).
    FeedForward {
        /// Sequence length.
        seq_len: usize,
        /// Hidden size.
        hidden: usize,
    },
    /// Element-wise op (residual add, activation) — negligible FLOPs but a
    /// synchronization point for tensor parallelism.
    ElementWise {
        /// Tensor shape.
        shape: TensorShape,
    },
}

impl Layer {
    /// Output activation shape.
    pub(crate) fn output_shape(&self) -> TensorShape {
        match *self {
            Layer::Conv2d {
                input,
                out_channels,
                stride,
                ..
            } => TensorShape::chw(
                out_channels,
                input.height.div_ceil(stride),
                input.width.div_ceil(stride),
            ),
            Layer::Pool { input, kernel } => TensorShape::chw(
                input.channels,
                input.height.div_ceil(kernel),
                input.width.div_ceil(kernel),
            ),
            Layer::Dense { out_features, .. } => TensorShape::vector(out_features),
            Layer::Attention { seq_len, hidden } | Layer::FeedForward { seq_len, hidden } => {
                TensorShape::sequence(seq_len, hidden)
            }
            Layer::ElementWise { shape } => shape,
        }
    }

    /// FLOPs per sample (2×MAC convention).
    pub(crate) fn flops(&self) -> f64 {
        match *self {
            Layer::Conv2d {
                input,
                out_channels,
                kernel,
                stride,
                groups,
            } => {
                let out_h = input.height.div_ceil(stride) as f64;
                let out_w = input.width.div_ceil(stride) as f64;
                let macs = (kernel * kernel) as f64
                    * (input.channels / groups) as f64
                    * out_channels as f64
                    * out_h
                    * out_w;
                2.0 * macs
            }
            Layer::Pool { input, .. } => input.elements() as f64,
            Layer::Dense {
                in_features,
                out_features,
            } => 2.0 * (in_features * out_features) as f64,
            Layer::Attention { seq_len, hidden } => {
                let s = seq_len as f64;
                let h = hidden as f64;
                // QKV + output projections: 4 × (s·h·h); attention matmuls:
                // 2 × (s·s·h).
                2.0 * (4.0 * s * h * h + 2.0 * s * s * h)
            }
            Layer::FeedForward { seq_len, hidden } => {
                let s = seq_len as f64;
                let h = hidden as f64;
                // Two dense layers with 4× expansion: 2 × (s·h·4h).
                2.0 * (8.0 * s * h * h)
            }
            Layer::ElementWise { shape } => shape.elements() as f64,
        }
    }

    /// Trainable parameters.
    pub(crate) fn params(&self) -> u64 {
        match *self {
            Layer::Conv2d {
                input,
                out_channels,
                kernel,
                groups,
                ..
            } => {
                ((kernel * kernel * (input.channels / groups) * out_channels) + out_channels) as u64
            }
            Layer::Pool { .. } | Layer::ElementWise { .. } => 0,
            Layer::Dense {
                in_features,
                out_features,
            } => (in_features * out_features + out_features) as u64,
            Layer::Attention { hidden, .. } => (4 * hidden * hidden + 4 * hidden) as u64,
            Layer::FeedForward { hidden, .. } => (8 * hidden * hidden + 5 * hidden) as u64,
        }
    }

    /// Returns `true` if the operator has a spatial receptive field wider
    /// than one column — i.e. width-partitioned tensor parallelism must
    /// exchange halo columns before it (§5.3's communication cost).
    pub(crate) fn needs_halo(&self) -> bool {
        matches!(self, Layer::Conv2d { kernel, .. } if *kernel > 1)
            || matches!(self, Layer::Pool { kernel, .. } if *kernel > 1)
    }

    /// Bytes exchanged per partition boundary for a width-split of this
    /// layer at FP32: the halo columns of the *input* tensor, both
    /// directions.
    pub(crate) fn halo_bytes(&self) -> f64 {
        match *self {
            Layer::Conv2d { input, kernel, .. } | Layer::Pool { input, kernel } => {
                // Global reductions (output collapses to one column) gather
                // instead of exchanging halos.
                if kernel <= 1 || input.width.div_ceil(kernel) <= 1 {
                    0.0
                } else {
                    let halo_cols = (kernel / 2) as f64;
                    2.0 * halo_cols * input.height as f64 * input.channels as f64 * 4.0
                }
            }
            _ => 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conv_flops_known_case() {
        // 3×3 conv, 64→64, 56×56, stride 1: 2 × 9 × 64 × 64 × 56 × 56.
        let l = Layer::Conv2d {
            input: TensorShape::chw(64, 56, 56),
            out_channels: 64,
            kernel: 3,
            stride: 1,
            groups: 1,
        };
        assert_eq!(l.flops(), 2.0 * 9.0 * 64.0 * 64.0 * 56.0 * 56.0);
        assert_eq!(l.output_shape(), TensorShape::chw(64, 56, 56));
    }

    #[test]
    fn strided_conv_shrinks_output() {
        let l = Layer::Conv2d {
            input: TensorShape::chw(3, 224, 224),
            out_channels: 64,
            kernel: 7,
            stride: 2,
            groups: 1,
        };
        assert_eq!(l.output_shape(), TensorShape::chw(64, 112, 112));
    }

    #[test]
    fn dense_flops_and_params() {
        let l = Layer::Dense {
            in_features: 2048,
            out_features: 1000,
        };
        assert_eq!(l.flops(), 2.0 * 2048.0 * 1000.0);
        assert_eq!(l.params(), 2048 * 1000 + 1000);
    }

    #[test]
    fn attention_plus_ffn_match_bert_layer() {
        // One BERT-base layer at seq 128 ≈ 1.86 GFLOPs.
        let attn = Layer::Attention {
            seq_len: 128,
            hidden: 768,
        };
        let ffn = Layer::FeedForward {
            seq_len: 128,
            hidden: 768,
        };
        let total = attn.flops() + ffn.flops();
        assert!((total / 1e9 - 1.86).abs() < 0.1, "got {}", total / 1e9);
    }

    #[test]
    fn halo_only_for_wide_kernels() {
        let k1 = Layer::Conv2d {
            input: TensorShape::chw(256, 56, 56),
            out_channels: 64,
            kernel: 1,
            stride: 1,
            groups: 1,
        };
        let k3 = Layer::Conv2d {
            input: TensorShape::chw(64, 56, 56),
            out_channels: 64,
            kernel: 3,
            stride: 1,
            groups: 1,
        };
        assert!(!k1.needs_halo());
        assert_eq!(k1.halo_bytes(), 0.0);
        assert!(k3.needs_halo());
        // 1 halo col × 56 rows × 64 ch × 4 B × 2 directions.
        assert_eq!(k3.halo_bytes(), 2.0 * 56.0 * 64.0 * 4.0);
    }

    #[test]
    fn grouped_conv_divides_macs() {
        let dense = Layer::Conv2d {
            input: TensorShape::chw(64, 28, 28),
            out_channels: 64,
            kernel: 3,
            stride: 1,
            groups: 1,
        };
        let grouped = Layer::Conv2d {
            input: TensorShape::chw(64, 28, 28),
            out_channels: 64,
            kernel: 3,
            stride: 1,
            groups: 4,
        };
        assert_eq!(grouped.flops(), dense.flops() / 4.0);
    }
}
