//! Calibration anchors taken from the paper.
//!
//! Every constant here cites the paper section/table/figure it comes from.
//! The rest of the workspace derives its behaviour from these anchors, so
//! that the reproduction harness regenerates the paper's tables and figures
//! from a single source of truth.
//!
//! Paper: *More is Different: Prototyping and Analyzing a New Form of Edge
//! Server with Massive Mobile SoCs*, USENIX ATC 2024.

/// Number of mobile SoCs in the prototyped 2U SoC Cluster (§2.2, Table 1).
pub const CLUSTER_SOC_COUNT: usize = 60;

/// Number of carrier PCBs, five SoCs each (§2.2, Fig. 2).
pub const CLUSTER_PCB_COUNT: usize = 12;

/// SoCs carried by each PCB (§2.2).
pub const SOCS_PER_PCB: usize = 5;

/// Uplink capacity of one PCB switch board in bits/s (§2.2, Table 3).
pub const PCB_UPLINK_BPS: f64 = 1.0e9;

/// External capacity of the Ethernet Switch Board: dual SFP+, 20 Gbps (§2.2).
pub const ESB_CAPACITY_BPS: f64 = 20.0e9;

/// Measured inter-SoC round-trip time (§2.3 "approximately 0.44 ms").
pub const INTER_SOC_RTT_MS: f64 = 0.44;

/// Measured inter-SoC TCP goodput on the 1 GbE fabric (§2.3): 903 Mbps.
pub const INTER_SOC_TCP_MBPS: f64 = 903.0;

/// Maximum power the redundant supplies can deliver (§2.2): ~700 W.
pub const CLUSTER_PSU_LIMIT_W: f64 = 700.0;

/// Per-SoC DRAM (Table 1): 12 GB LPDDR5.
pub const SOC_DRAM_GB: f64 = 12.0;

/// Per-SoC flash (Table 1): 256 GB UFS.
pub const SOC_FLASH_GB: f64 = 256.0;

/// SoC CPU core count (Table 1, Kryo 585).
pub const SOC_CPU_CORES: usize = 8;

// ---------------------------------------------------------------------------
// Whole-server power anchors (Table 4, "Avg. peak power consumption" while
// live-transcoding V5 at full load).
// ---------------------------------------------------------------------------

/// SoC Cluster average peak power (Table 4): 589 W.
pub const CLUSTER_AVG_PEAK_W: f64 = 589.0;

/// Traditional edge server with 8× A40 average peak power (Table 4): 1,231 W.
pub const EDGE_GPU_AVG_PEAK_W: f64 = 1231.0;

/// Traditional edge server without GPUs average peak power (Table 4): 633 W.
pub const EDGE_CPU_AVG_PEAK_W: f64 = 633.0;

// ---------------------------------------------------------------------------
// Transcoding capacity anchors (Table 3). Capacity is expressed in abstract
// "perf units" (pu) where one Snapdragon 865 CPU complex provides
// `SOC_CPU_TRANSCODE_PU`. The per-video stream costs in `socc-video` are
// derived from the Table 3 max-stream columns against this capacity.
// ---------------------------------------------------------------------------

/// Transcode perf units of one SoC's 8-core Kryo 585 complex.
///
/// Normalized from Table 2: whole-cluster GB5 CPU score 194,100 / 60 SoCs.
pub const SOC_CPU_TRANSCODE_PU: f64 = 3235.0;

/// Transcode perf units of one 8-core Intel Xeon Gold 5218R container.
///
/// Back-derived from Table 5 live TpC rows: the Intel container sustains
/// ≈2.0× the live streams of one SoC across V1–V6.
pub const INTEL_CONTAINER_TRANSCODE_PU: f64 = 6470.0;

/// Docker containers carved out of the Xeon host (§3 "Setups": 80 hardware
/// threads partitioned into 10 separate 8-core containers).
pub const INTEL_CONTAINER_COUNT: usize = 10;

// ---------------------------------------------------------------------------
// Video workload power anchors (§4.1, Fig. 6/7; derived in DESIGN.md).
// Values parameterize `LoadPowerModel { idle, activation, dynamic }`.
// ---------------------------------------------------------------------------

/// SoC CPU complex: idle 2.0 W, activation 0.8 W, dynamic 5.8 W.
///
/// Full-load workload power 6.6 W/SoC reproduces the 589 W cluster peak
/// (Table 4) and the SoC-vs-Intel live TpE band of 2.58–3.21× (§4.1).
pub const SOC_CPU_POWER: (f64, f64, f64) = (2.0, 0.8, 5.8);

/// One 8-core Intel container slice: idle 4.0 W, activation 1.5 W,
/// dynamic 38.5 W (full-load workload power 40 W/container).
pub const INTEL_CONTAINER_POWER: (f64, f64, f64) = (4.0, 1.5, 38.5);

/// One NVIDIA A40 used for NVENC transcoding: idle 30 W, activation 52 W
/// (the "high-power mode with high clock frequencies" of §4.1),
/// dynamic 48 W.
pub const A40_TRANSCODE_POWER: (f64, f64, f64) = (30.0, 52.0, 48.0);

/// SoC hardware codec (Venus): idle 0.05 W, activation 0.15 W, dynamic 1.6 W.
///
/// Sized so HW-codec TpE is ≈2.5× SoC-CPU on low-entropy videos and
/// 4.7–5.5× on high-entropy ones (§4.2, Fig. 8b).
pub const SOC_HW_CODEC_POWER: (f64, f64, f64) = (0.05, 0.15, 1.6);

// ---------------------------------------------------------------------------
// DL serving anchors (§5, Fig. 11, Table 7). Latencies in milliseconds at
// batch size 1 unless stated.
// ---------------------------------------------------------------------------

/// ResNet-50 FP32 on the SoC CPU via TFLite (Table 7): 81.2 ms.
pub const DL_SOC_CPU_R50_FP32_MS: f64 = 81.2;

/// ResNet-50 FP32 on the SoC GPU via TFLite-GPU (Table 7): 32.5 ms.
pub const DL_SOC_GPU_R50_FP32_MS: f64 = 32.5;

/// ResNet-50 INT8 on the SoC DSP (§1/§5.1: 8.8 ms; Table 7 physical: 11.0).
pub const DL_SOC_DSP_R50_INT8_MS: f64 = 8.8;

/// ResNet-152 FP32 on the SoC CPU (Table 7): 258.3 ms.
pub const DL_SOC_CPU_R152_FP32_MS: f64 = 258.3;

/// ResNet-152 FP32 on the SoC GPU (Table 7): 100.9 ms.
pub const DL_SOC_GPU_R152_FP32_MS: f64 = 100.9;

/// ResNet-152 INT8 on the SoC DSP (Table 7 virtualized: 20.4; §5.1 quotes
/// the 20.4–269 ms SoC latency range for ResNet-152).
pub const DL_SOC_DSP_R152_INT8_MS: f64 = 21.0;

/// YOLOv5x FP32 on the SoC CPU (Table 7): 1121.3 ms.
pub const DL_SOC_CPU_YOLO_FP32_MS: f64 = 1121.3;

/// YOLOv5x FP32 on the SoC GPU (Table 7): 620.6 ms.
pub const DL_SOC_GPU_YOLO_FP32_MS: f64 = 620.6;

/// Workload power of the SoC GPU while running DL inference.
///
/// Back-derived from §5.2: ≈18 samples/J on ResNet-50 FP32 at 30.8 fps.
pub const DL_SOC_GPU_POWER_W: f64 = 1.71;

/// Workload power of the SoC DSP while running INT8 inference.
///
/// Back-derived from §5.2: DSP ResNet-152 INT8 is 42× the Intel CPU's
/// samples/J ("operating at frequencies ≤ 500 MHz").
pub const DL_SOC_DSP_POWER_W: f64 = 0.75;

/// Workload power of the SoC CPU complex during TFLite inference.
pub const DL_SOC_CPU_POWER_W: f64 = 3.5;

/// Intel 8-core container, TVM FP32 ResNet-50 latency.
///
/// Back-derived from Table 5 (TpC 0.579 × $1,410 ≈ 830 fps server-wide).
pub const DL_INTEL_R50_FP32_MS: f64 = 12.0;

/// Intel container TVM workload power during inference.
pub const DL_INTEL_POWER_W: f64 = 33.0;

/// NVIDIA A40, TensorRT ResNet-50 FP32, batch 64: per-batch latency.
///
/// Back-derived from Table 5 (TpC 14.631 × $1,410 / 8 GPUs ≈ 2,580 fps).
pub const DL_A40_R50_FP32_BS64_MS: f64 = 24.8;

/// NVIDIA A40 batch-1 framework+PCIe overhead (§5.1: "approximately 8 ms
/// for a INT8-based ResNet-50"; FP32 batch-1 is dominated by this term).
pub const DL_A40_OVERHEAD_MS: f64 = 6.5;

/// NVIDIA A40 workload power during full-batch inference.
pub const DL_A40_POWER_W: f64 = 250.0;

/// NVIDIA A100 workload power during full-batch inference.
pub const DL_A100_POWER_W: f64 = 300.0;

/// NVIDIA A100, TensorRT ResNet-50 FP32, batch 64: per-batch latency.
///
/// Back-derived from §5.2: SoC GPU is 1.15× the A100's samples/J.
pub const DL_A100_R50_FP32_BS64_MS: f64 = 13.6;

// ---------------------------------------------------------------------------
// Collaborative inference anchors (§5.3, Fig. 13).
// ---------------------------------------------------------------------------

/// MNN single-SoC ResNet-50 compute time in the collaborative setup: 80 ms.
pub const COLLAB_R50_1SOC_COMPUTE_MS: f64 = 80.0;

/// MNN five-SoC ResNet-50 compute time: 34 ms (a 2.35× reduction).
pub const COLLAB_R50_5SOC_COMPUTE_MS: f64 = 34.0;

/// Communication share of total latency at 5 SoCs, unpipelined: 41.5%.
pub const COLLAB_COMM_SHARE_5SOC: f64 = 0.415;

/// Communication share at 5 SoCs with compute/communication pipelining: 22.9%.
pub const COLLAB_COMM_SHARE_5SOC_PIPELINED: f64 = 0.229;

/// End-to-end speedup from 1 → 5 SoCs (unpipelined): 1.38×.
pub const COLLAB_SPEEDUP_5SOC: f64 = 1.38;

// ---------------------------------------------------------------------------
// Virtualization overhead anchors (Table 7, §8).
// ---------------------------------------------------------------------------

/// Extra memory utilization of a containerized-Android SoC, in percentage
/// points (Table 7: e.g. 32.3% → 37.7% on ResNet-50/CPU).
pub const VIRT_MEMORY_OVERHEAD_PP: f64 = 5.3;

/// GPU utilization ceiling on virtualized SoCs (Table 7: 73.9% → 71.3%,
/// 82.5% → 77.1%; "prevents GPU workloads from achieving the same high
/// level of GPU usage").
pub const VIRT_GPU_UTIL_FACTOR: f64 = 0.945;

/// Latency slowdown of GPU workloads under virtualization on large models
/// (Table 7: YOLOv5x 620.6 → 683.7 ms ≈ 10%).
pub const VIRT_GPU_LATENCY_FACTOR: f64 = 1.10;

/// Latency factor for CPU/DSP workloads under virtualization (Table 7 shows
/// differences within noise; slightly faster than 1.0 in several rows).
pub const VIRT_CPU_LATENCY_FACTOR: f64 = 1.00;
