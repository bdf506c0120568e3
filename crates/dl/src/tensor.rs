//! Tensor shapes and numeric formats.

/// Numeric precision of weights/activations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DType {
    /// 32-bit floating point.
    Fp32,
    /// 16-bit floating point.
    Fp16,
    /// 8-bit quantized integer.
    Int8,
}

impl DType {
    /// Size of one element in bytes.
    pub(crate) fn bytes(self) -> usize {
        match self {
            DType::Fp32 => 4,
            DType::Fp16 => 2,
            DType::Int8 => 1,
        }
    }

    /// Label as printed in the paper's figures ("FP32", "INT8").
    pub fn label(self) -> &'static str {
        match self {
            DType::Fp32 => "FP32",
            DType::Fp16 => "FP16",
            DType::Int8 => "INT8",
        }
    }
}

/// An activation tensor shape in NCHW-style layout (batch excluded; all
/// sizes are per sample).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TensorShape {
    /// Channels (or hidden size for sequence models).
    pub(crate) channels: usize,
    /// Height (or sequence length; 1 for vectors).
    pub(crate) height: usize,
    /// Width (1 for vectors/sequences).
    pub(crate) width: usize,
}

impl TensorShape {
    /// Creates a CHW shape.
    pub(crate) const fn chw(channels: usize, height: usize, width: usize) -> Self {
        Self {
            channels,
            height,
            width,
        }
    }

    /// Creates a flat vector shape.
    pub(crate) const fn vector(len: usize) -> Self {
        Self {
            channels: len,
            height: 1,
            width: 1,
        }
    }

    /// Creates a sequence shape (`seq_len × hidden`).
    pub(crate) const fn sequence(seq_len: usize, hidden: usize) -> Self {
        Self {
            channels: hidden,
            height: seq_len,
            width: 1,
        }
    }

    /// Total elements per sample.
    pub(crate) fn elements(&self) -> usize {
        self.channels * self.height * self.width
    }

    /// Bytes per sample at a precision.
    pub(crate) fn bytes(&self, dtype: DType) -> usize {
        self.elements() * dtype.bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dtype_sizes() {
        assert_eq!(DType::Fp32.bytes(), 4);
        assert_eq!(DType::Fp16.bytes(), 2);
        assert_eq!(DType::Int8.bytes(), 1);
    }

    #[test]
    fn shape_element_counts() {
        assert_eq!(TensorShape::chw(64, 56, 56).elements(), 64 * 56 * 56);
        assert_eq!(TensorShape::vector(1000).elements(), 1000);
        assert_eq!(TensorShape::sequence(128, 768).elements(), 128 * 768);
    }

    #[test]
    fn bytes_scale_with_dtype() {
        let s = TensorShape::chw(3, 224, 224);
        assert_eq!(s.bytes(DType::Fp32), 4 * s.bytes(DType::Int8));
    }
}
