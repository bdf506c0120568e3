//! `socc-dl` — deep-learning serving substrate.
//!
//! Replaces the paper's DL stacks (TFLite, TVM, TensorRT, MNN — §3/§5)
//! with calibrated engine models over a layer-exact model zoo:
//!
//! - [`tensor`], `layers`, `graph`: shapes, operators, FLOP counting;
//! - [`zoo`]: ResNet-50/152, YOLOv5x, BERT-base builders;
//! - [`engine`]: six inference engines with latency/power anchored to
//!   Fig. 11 and Table 7;
//! - [`serving`]: load-dependent duty cycling and dynamic batching
//!   (Fig. 12);
//! - [`parallel`]: width-partitioned tensor parallelism across SoCs with
//!   TCP halo exchange and optional pipelining (Fig. 13);
//! - [`calib`]: the latency anchor table with per-value provenance.
//!
//! # Examples
//!
//! ```
//! use socc_dl::engine::Engine;
//! use socc_dl::tensor::DType;
//! use socc_dl::zoo::ModelId;
//!
//! // §5.1: quantized ResNet-50 on the SoC DSP runs in 8.8 ms.
//! let lat = Engine::QnnDsp.latency(ModelId::ResNet50, DType::Int8, 1).unwrap();
//! assert!((lat.as_millis_f64() - 8.8).abs() < 1e-9);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod batcher;
pub mod calib;
pub mod engine;
pub(crate) mod graph;
pub(crate) mod layers;
pub mod parallel;
pub mod pipeline;
pub mod quant;
pub mod queueing;
pub mod serving;
pub mod tensor;
pub mod zoo;

pub use engine::Engine;
pub use tensor::DType;
pub use zoo::ModelId;
