//! Model graphs: ordered layer sequences with aggregate statistics.

use crate::layers::Layer;
use crate::tensor::{DType, TensorShape};

/// A sequential model graph.
///
/// Real networks have residual branches; for cost accounting (FLOPs,
/// activation traffic, halo exchange) a topologically ordered sequence is
/// sufficient, with [`Layer::ElementWise`] marking the merge points.
#[derive(Debug, Clone)]
pub struct ModelGraph {
    /// Input shape per sample.
    pub(crate) input: TensorShape,
    layers: Vec<Layer>,
}

impl ModelGraph {
    /// Creates an empty graph.
    pub(crate) fn new(input: TensorShape) -> Self {
        Self {
            input,
            layers: Vec::new(),
        }
    }

    /// Appends a layer.
    pub(crate) fn push(&mut self, layer: Layer) -> &mut Self {
        self.layers.push(layer);
        self
    }

    /// The layers in execution order.
    pub(crate) fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Total FLOPs per sample (2×MAC convention).
    pub(crate) fn flops(&self) -> f64 {
        self.layers.iter().map(Layer::flops).sum()
    }

    /// Total FLOPs in GFLOPs.
    pub fn gflops(&self) -> f64 {
        self.flops() / 1e9
    }

    /// Total trainable parameters.
    pub(crate) fn params(&self) -> u64 {
        self.layers.iter().map(Layer::params).sum()
    }

    /// Model weight size in bytes at a precision.
    pub fn weight_bytes(&self, dtype: DType) -> f64 {
        self.params() as f64 * dtype.bytes() as f64
    }

    /// Number of layers that need a halo exchange under width-partitioned
    /// tensor parallelism.
    pub fn halo_sync_points(&self) -> usize {
        self.layers.iter().filter(|l| l.needs_halo()).count()
    }

    /// Total bytes exchanged per partition boundary over one inference
    /// under width partitioning (sum of per-layer halos).
    pub fn halo_bytes_per_boundary(&self) -> f64 {
        self.layers.iter().map(Layer::halo_bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ModelGraph {
        let mut g = ModelGraph::new(TensorShape::chw(3, 8, 8));
        g.push(Layer::Conv2d {
            input: TensorShape::chw(3, 8, 8),
            out_channels: 4,
            kernel: 3,
            stride: 1,
            groups: 1,
        });
        g.push(Layer::Dense {
            in_features: 4 * 8 * 8,
            out_features: 10,
        });
        g
    }

    #[test]
    fn totals_sum_layers() {
        let g = tiny();
        assert_eq!(g.len(), 2);
        let conv_flops = 2.0 * 9.0 * 3.0 * 4.0 * 64.0;
        let dense_flops = 2.0 * 256.0 * 10.0;
        assert_eq!(g.flops(), conv_flops + dense_flops);
        assert!(g.params() > 0);
    }

    #[test]
    fn halo_accounting() {
        let g = tiny();
        assert_eq!(g.halo_sync_points(), 1);
        assert!(g.halo_bytes_per_boundary() > 0.0);
    }

    #[test]
    fn weight_bytes_scale_with_dtype() {
        let g = tiny();
        assert_eq!(
            g.weight_bytes(DType::Fp32),
            4.0 * g.weight_bytes(DType::Int8)
        );
    }
}
