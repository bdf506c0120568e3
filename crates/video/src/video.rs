//! Video metadata and per-backend transcode cost models.
//!
//! Encoding cost scales with the macroblock rate (16×16 blocks per second)
//! weighted by a content-complexity factor derived from the video's entropy
//! (bits/pixel/s, Table 3). Per-video *residuals* capture what a formula
//! cannot: measured deviations of real encoders on real content. vbench
//! videos carry residuals calibrated from Table 3/Table 5; synthetic videos
//! default to residual 1.0.

use socc_sim::units::DataRate;

/// Frame dimensions in pixels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Resolution {
    /// Width in pixels.
    pub width: u32,
    /// Height in pixels.
    pub height: u32,
}

impl Resolution {
    /// Creates a resolution.
    pub const fn new(width: u32, height: u32) -> Self {
        Self { width, height }
    }

    /// Total pixels per frame.
    pub fn pixels(self) -> u64 {
        self.width as u64 * self.height as u64
    }

    /// 16×16 macroblocks per frame (dimensions rounded up).
    pub fn macroblocks(self) -> u64 {
        (self.width as u64).div_ceil(16) * (self.height as u64).div_ceil(16)
    }
}

impl core::fmt::Display for Resolution {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}x{}", self.width, self.height)
    }
}

/// Per-backend calibration residuals (dimensionless multipliers on the
/// formula-predicted cost; 1.0 = formula exact).
#[derive(Debug, Clone, Copy)]
pub struct CostResiduals {
    /// Software x264 on any CPU.
    pub cpu: f64,
    /// Mobile hardware codec (MediaCodec / Venus).
    pub hw: f64,
    /// NVIDIA NVENC.
    pub nvenc: f64,
}

impl Default for CostResiduals {
    fn default() -> Self {
        Self {
            cpu: 1.0,
            hw: 1.0,
            nvenc: 1.0,
        }
    }
}

/// Measured single-job archive throughput anchors in frames/s, when known
/// (vbench videos; back-derived from Table 5's archive TpC rows).
#[derive(Debug, Clone, Copy, Default)]
pub struct ArchiveAnchors {
    /// One x264 process using a whole SoC (8 cores).
    pub soc_fps: Option<f64>,
    /// One x264 process using an 8-core Intel container.
    pub intel_fps: Option<f64>,
    /// One NVENC session on an A40.
    pub a40_fps: Option<f64>,
}

/// Metadata and calibrated cost model of one video.
#[derive(Debug, Clone)]
pub struct VideoMeta {
    /// Short id ("V1".."V6" for vbench).
    pub id: String,
    /// Content name ("holi", "desktop", …).
    pub name: String,
    /// Frame dimensions.
    pub resolution: Resolution,
    /// Frames per second of the source.
    pub fps: f64,
    /// Source entropy in bits/pixel/s (Table 3; relates to scene
    /// complexity: desktop captures ≈ 0.2, busy scenes ≈ 7).
    pub entropy: f64,
    /// Source stream bitrate.
    pub source_bitrate: DataRate,
    /// Target bitrate for live transcoding (Table 3).
    pub target_bitrate: DataRate,
    /// Calibration residuals.
    pub residuals: CostResiduals,
    /// Measured archive throughput anchors.
    pub archive: ArchiveAnchors,
}

impl VideoMeta {
    /// Creates a synthetic video with formula-default residuals.
    #[allow(clippy::too_many_arguments)]
    pub fn synthetic(
        id: &str,
        name: &str,
        resolution: Resolution,
        fps: f64,
        entropy: f64,
        source_bitrate: DataRate,
        target_bitrate: DataRate,
    ) -> Self {
        Self {
            id: id.to_string(),
            name: name.to_string(),
            resolution,
            fps,
            entropy,
            source_bitrate,
            target_bitrate,
            residuals: CostResiduals::default(),
            archive: ArchiveAnchors::default(),
        }
    }

    /// Macroblock rate of the stream (macroblocks per second).
    pub fn mb_per_s(&self) -> f64 {
        self.resolution.macroblocks() as f64 * self.fps
    }

    /// Pixel rate of the stream (pixels per second).
    pub fn pixels_per_s(&self) -> f64 {
        self.resolution.pixels() as f64 * self.fps
    }

    /// Content-complexity weight applied to the macroblock rate.
    ///
    /// Calibrated against Table 3: low-entropy screen content costs roughly
    /// half of high-entropy camera content per macroblock.
    pub fn complexity_factor(&self) -> f64 {
        0.55 + 0.075 * self.entropy
    }

    /// Complexity-weighted macroblock rate (the formula cost driver).
    pub fn weighted_mb_per_s(&self) -> f64 {
        self.mb_per_s() * self.complexity_factor()
    }

    /// Live x264 encode cost in CPU perf-units per stream.
    pub fn cpu_cost_pu(&self) -> f64 {
        const K_CPU: f64 = 3.7e-3; // pu per weighted macroblock/s
        K_CPU * self.weighted_mb_per_s() * self.residuals.cpu
    }

    /// Live hardware-codec cost in complexity-weighted macroblocks/s.
    pub fn hw_cost_mb_s(&self) -> f64 {
        self.weighted_mb_per_s() * self.residuals.hw
    }

    /// Live NVENC cost in complexity-weighted macroblocks/s.
    pub fn nvenc_cost_mb_s(&self) -> f64 {
        self.weighted_mb_per_s() * self.residuals.nvenc
    }

    /// In-plus-out network traffic of one live transcode stream.
    ///
    /// Table 3's network-bound analysis counts both the inbound source and
    /// the outbound transcoded stream.
    pub fn stream_traffic(&self) -> DataRate {
        self.source_bitrate + self.target_bitrate
    }

    /// Target bits per pixel of the live transcode output.
    pub fn target_bpp(&self) -> f64 {
        self.target_bitrate.as_bps() / self.pixels_per_s()
    }

    /// Source bits per pixel.
    pub fn source_bpp(&self) -> f64 {
        self.source_bitrate.as_bps() / self.pixels_per_s()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v720p60() -> VideoMeta {
        VideoMeta::synthetic(
            "S1",
            "synthetic",
            Resolution::new(1280, 720),
            60.0,
            5.0,
            DataRate::mbps(6.0),
            DataRate::mbps(3.0),
        )
    }

    #[test]
    fn macroblock_rounding_up() {
        assert_eq!(Resolution::new(854, 480).macroblocks(), 54 * 30);
        assert_eq!(Resolution::new(1920, 1080).macroblocks(), 120 * 68);
        assert_eq!(Resolution::new(16, 16).macroblocks(), 1);
        assert_eq!(Resolution::new(17, 17).macroblocks(), 4);
    }

    #[test]
    fn complexity_grows_with_entropy() {
        let mut lo = v720p60();
        lo.entropy = 0.2;
        let mut hi = v720p60();
        hi.entropy = 7.7;
        assert!(hi.complexity_factor() > 1.9 * lo.complexity_factor());
    }

    #[test]
    fn cost_scales_with_resolution_and_fps() {
        let base = v720p60();
        let mut uhd = v720p60();
        uhd.resolution = Resolution::new(3840, 2160);
        assert!(uhd.cpu_cost_pu() > 8.0 * base.cpu_cost_pu());
        let mut slow = v720p60();
        slow.fps = 30.0;
        assert!((slow.cpu_cost_pu() - base.cpu_cost_pu() / 2.0).abs() < 1e-9);
    }

    #[test]
    fn traffic_sums_both_directions() {
        let v = v720p60();
        assert!((v.stream_traffic().as_mbps() - 9.0).abs() < 1e-9);
    }

    #[test]
    fn default_residuals_are_identity() {
        let v = v720p60();
        assert!((v.hw_cost_mb_s() - v.weighted_mb_per_s()).abs() < 1e-9);
        assert!((v.nvenc_cost_mb_s() - v.weighted_mb_per_s()).abs() < 1e-9);
    }

    #[test]
    fn bpp_computation() {
        let v = v720p60();
        let expected = 3.0e6 / (1280.0 * 720.0 * 60.0);
        assert!((v.target_bpp() - expected).abs() < 1e-12);
        assert!((v.source_bpp() - 2.0 * expected).abs() < 1e-12);
    }

    #[test]
    fn display_resolution() {
        assert_eq!(format!("{}", Resolution::new(1920, 1080)), "1920x1080");
    }
}
