//! The model zoo: the four DNNs of the paper's DL-serving study (§3).
//!
//! ResNet-50 and ResNet-152 are built layer-exactly; YOLOv5x is a
//! structurally faithful CSP approximation scaled to its published FLOP
//! count; BERT-base is built from transformer blocks at sequence length
//! 128. Each builder's aggregate FLOPs are tested against the published
//! numbers (2×MAC convention).

use crate::graph::ModelGraph;
use crate::layers::Layer;
use crate::tensor::TensorShape;

/// The four benchmark models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelId {
    /// ResNet-50 at 224×224.
    ResNet50,
    /// ResNet-152 at 224×224.
    ResNet152,
    /// YOLOv5x at 640×640.
    YoloV5x,
    /// BERT-base (uncased) at sequence length 128.
    BertBase,
}

impl ModelId {
    /// All models in the paper's reporting order.
    pub const ALL: [ModelId; 4] = [
        ModelId::ResNet50,
        ModelId::ResNet152,
        ModelId::YoloV5x,
        ModelId::BertBase,
    ];

    /// Short label as used in the paper's tables ("R-50", …).
    pub fn label(self) -> &'static str {
        match self {
            ModelId::ResNet50 => "R-50",
            ModelId::ResNet152 => "R-152",
            ModelId::YoloV5x => "YOLOv5x",
            ModelId::BertBase => "BERT",
        }
    }

    /// Published GFLOPs per sample (2×MAC).
    pub(crate) fn gflops_anchor(self) -> f64 {
        match self {
            ModelId::ResNet50 => 8.2,
            ModelId::ResNet152 => 23.1,
            ModelId::YoloV5x => 205.7,
            ModelId::BertBase => 22.4,
        }
    }

    /// Builds the layer graph.
    pub fn graph(self) -> ModelGraph {
        match self {
            ModelId::ResNet50 => resnet(50),
            ModelId::ResNet152 => resnet(152),
            ModelId::YoloV5x => yolov5x(),
            ModelId::BertBase => bert_base(),
        }
    }
}

fn conv(g: &mut ModelGraph, input: TensorShape, out: usize, k: usize, s: usize) -> TensorShape {
    let layer = Layer::Conv2d {
        input,
        out_channels: out,
        kernel: k,
        stride: s,
        groups: 1,
    };
    let shape = layer.output_shape();
    g.push(layer);
    shape
}

/// A ResNet bottleneck block: 1×1 reduce, 3×3, 1×1 expand, residual add.
fn bottleneck(g: &mut ModelGraph, input: TensorShape, mid: usize, stride: usize) -> TensorShape {
    let out_ch = mid * 4;
    let needs_projection = input.channels != out_ch || stride != 1;
    let a = conv(g, input, mid, 1, 1);
    let b = conv(g, a, mid, 3, stride);
    let c = conv(g, b, out_ch, 1, 1);
    if needs_projection {
        conv(g, input, out_ch, 1, stride);
    }
    g.push(Layer::ElementWise { shape: c });
    c
}

/// Builds ResNet-50 or ResNet-152 (stage depths differ).
fn resnet(depth: usize) -> ModelGraph {
    let stages: [usize; 4] = match depth {
        50 => [3, 4, 6, 3],
        152 => [3, 8, 36, 3],
        _ => panic!("unsupported ResNet depth {depth}"),
    };
    let mut g = ModelGraph::new(TensorShape::chw(3, 224, 224));
    let mut shape = conv(&mut g, TensorShape::chw(3, 224, 224), 64, 7, 2);
    g.push(Layer::Pool {
        input: shape,
        kernel: 2,
    });
    shape = TensorShape::chw(64, 56, 56);
    for (stage, &blocks) in stages.iter().enumerate() {
        let mid = 64 << stage;
        for block in 0..blocks {
            let stride = if stage > 0 && block == 0 { 2 } else { 1 };
            shape = bottleneck(&mut g, shape, mid, stride);
        }
    }
    g.push(Layer::Pool {
        input: shape,
        kernel: 7,
    });
    g.push(Layer::Dense {
        in_features: 2048,
        out_features: 1000,
    });
    g
}

/// A CSP ("C3") block: `repeats` bottlenecks on half the channels plus a
/// merge conv.
fn c3(g: &mut ModelGraph, input: TensorShape, repeats: usize) -> TensorShape {
    let half = input.channels / 2;
    let mut shape = conv(g, input, half, 1, 1);
    for _ in 0..repeats {
        let a = conv(g, shape, half, 1, 1);
        shape = conv(g, a, half, 3, 1);
        g.push(Layer::ElementWise { shape });
    }
    let merged = conv(
        g,
        TensorShape::chw(half, shape.height, shape.width),
        input.channels,
        1,
        1,
    );
    g.push(Layer::ElementWise { shape: merged });
    merged
}

/// YOLOv5x at 640×640: CSPDarknet backbone (width 1.25, depth 1.33) plus a
/// PANet-style neck, scaled to the published 205.7 GFLOPs.
fn yolov5x() -> ModelGraph {
    let mut g = ModelGraph::new(TensorShape::chw(3, 640, 640));
    // Backbone.
    let mut s = conv(&mut g, TensorShape::chw(3, 640, 640), 80, 6, 2); // P1: 320²
    s = conv(&mut g, s, 160, 3, 2); // P2: 160²
    s = c3(&mut g, s, 4);
    s = conv(&mut g, s, 320, 3, 2); // P3: 80²
    let p3 = c3(&mut g, s, 8);
    s = conv(&mut g, p3, 640, 3, 2); // P4: 40²
    let p4 = c3(&mut g, s, 12);
    s = conv(&mut g, p4, 1280, 3, 2); // P5: 20²
    s = c3(&mut g, s, 4);
    // SPPF.
    s = conv(&mut g, s, 640, 1, 1);
    g.push(Layer::Pool {
        input: s,
        kernel: 1,
    });
    s = conv(&mut g, s, 1280, 1, 1);
    // Neck (PANet): top-down then bottom-up.
    let lat5 = conv(&mut g, s, 640, 1, 1);
    let up4 = TensorShape::chw(640, 40, 40); // cat(upsample(lat5), p4) reduced
    let n4 = c3(&mut g, up4, 4);
    let lat4 = conv(&mut g, n4, 320, 1, 1);
    let up3 = TensorShape::chw(320, 80, 80); // cat(upsample(lat4), p3) reduced
    let n3 = c3(&mut g, up3, 4);
    let d3 = conv(&mut g, n3, 320, 3, 2); // back down to 40²
    let cat4 = TensorShape::chw(d3.channels + lat4.channels, 40, 40);
    let n4b = c3(&mut g, cat4, 4);
    let d4 = conv(&mut g, n4b, 640, 3, 2); // down to 20²
    let cat5 = TensorShape::chw(d4.channels + lat5.channels, 20, 20);
    let n5 = c3(&mut g, cat5, 4);
    // Detect heads (3 scales, 255 = 3 anchors × 85 outputs).
    conv(&mut g, n3, 255, 1, 1);
    conv(&mut g, n4b, 255, 1, 1);
    conv(&mut g, n5, 255, 1, 1);
    g
}

/// BERT-base at sequence length 128: 12 transformer blocks plus pooler.
fn bert_base() -> ModelGraph {
    const SEQ: usize = 128;
    const HIDDEN: usize = 768;
    let mut g = ModelGraph::new(TensorShape::sequence(SEQ, HIDDEN));
    for _ in 0..12 {
        g.push(Layer::Attention {
            seq_len: SEQ,
            hidden: HIDDEN,
        });
        g.push(Layer::ElementWise {
            shape: TensorShape::sequence(SEQ, HIDDEN),
        });
        g.push(Layer::FeedForward {
            seq_len: SEQ,
            hidden: HIDDEN,
        });
        g.push(Layer::ElementWise {
            shape: TensorShape::sequence(SEQ, HIDDEN),
        });
    }
    g.push(Layer::Dense {
        in_features: HIDDEN,
        out_features: HIDDEN,
    }); // pooler
    g.push(Layer::Dense {
        in_features: HIDDEN,
        out_features: 2,
    });
    g
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gflops_match_published_numbers() {
        for model in ModelId::ALL {
            let g = model.graph();
            let rel = (g.gflops() - model.gflops_anchor()).abs() / model.gflops_anchor();
            assert!(
                rel < 0.12,
                "{model:?}: {} vs anchor {}",
                g.gflops(),
                model.gflops_anchor()
            );
        }
    }

    #[test]
    fn resnet50_parameter_count() {
        // Published: 25.6 M parameters.
        let params = ModelId::ResNet50.graph().params() as f64 / 1e6;
        assert!((params - 25.6).abs() < 2.0, "params {params}M");
    }

    #[test]
    fn resnet152_parameter_count() {
        // Published: 60.2 M parameters.
        let params = ModelId::ResNet152.graph().params() as f64 / 1e6;
        assert!((params - 60.2).abs() < 5.0, "params {params}M");
    }

    #[test]
    fn bert_base_parameter_count() {
        // Transformer blocks alone ≈ 85 M (embeddings excluded from the
        // compute graph).
        let params = ModelId::BertBase.graph().params() as f64 / 1e6;
        assert!((60.0..=110.0).contains(&params), "params {params}M");
    }

    #[test]
    fn resnet152_has_3x_resnet50_convs() {
        let r50 = ModelId::ResNet50.graph();
        let r152 = ModelId::ResNet152.graph();
        assert!(r152.len() > 2 * r50.len());
        assert!(r152.flops() > 2.5 * r50.flops());
    }

    #[test]
    fn cnns_have_many_halo_points_bert_none() {
        assert!(ModelId::ResNet50.graph().halo_sync_points() >= 16);
        assert_eq!(ModelId::BertBase.graph().halo_sync_points(), 0);
    }

    #[test]
    fn resnet50_halo_volume_is_mb_scale() {
        // §5.3's communication cost: ~100s of kB per boundary per inference.
        let bytes = ModelId::ResNet50.graph().halo_bytes_per_boundary();
        assert!((1.0e5..=2.0e6).contains(&bytes), "bytes {bytes}");
    }

    #[test]
    fn yolo_is_the_flop_heavyweight() {
        let yolo = ModelId::YoloV5x.graph().flops();
        for other in [ModelId::ResNet50, ModelId::ResNet152, ModelId::BertBase] {
            assert!(yolo > 5.0 * other.graph().flops());
        }
    }
}
