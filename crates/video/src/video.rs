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
    pub(crate) width: u32,
    /// Height in pixels.
    pub(crate) height: u32,
}

impl Resolution {
    /// Creates a resolution.
    pub const fn new(width: u32, height: u32) -> Self {
        Self { width, height }
    }

    /// Total pixels per frame.
    pub(crate) fn pixels(self) -> u64 {
        self.width as u64 * self.height as u64
    }

    /// 16×16 macroblocks per frame (dimensions rounded up).
    pub(crate) fn macroblocks(self) -> u64 {
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
pub(crate) struct CostResiduals {
    /// Software x264 on any CPU.
    pub(crate) cpu: f64,
    /// Mobile hardware codec (MediaCodec / Venus).
    pub(crate) hw: f64,
    /// NVIDIA NVENC.
    pub(crate) nvenc: f64,
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
pub(crate) struct ArchiveAnchors {
    /// One x264 process using a whole SoC (8 cores).
    pub(crate) soc_fps: Option<f64>,
    /// One x264 process using an 8-core Intel container.
    pub(crate) intel_fps: Option<f64>,
    /// One NVENC session on an A40.
    pub(crate) a40_fps: Option<f64>,
}

/// A video's identity: the source clip's id and, for a rendition of an
/// ABR ladder ([`crate::abr`]), the rung it is transcoded to. It renders
/// as the id string (`"V1"`, or `"V1-r2"` for rung 2) and compares equal
/// to it, but is `Copy`: copying it allocates nothing.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct VideoId {
    source: &'static str,
    rung: Option<u8>,
}

impl VideoId {
    /// The id of a source clip.
    pub(crate) const fn new(source: &'static str) -> Self {
        Self { source, rung: None }
    }

    /// The id of rendition `rung` of this clip.
    ///
    /// # Panics
    ///
    /// Panics if this id is already a rendition's.
    pub(crate) fn rung(self, rung: u8) -> Self {
        assert!(self.rung.is_none(), "{self} is already a rendition");
        Self {
            rung: Some(rung),
            ..self
        }
    }

    /// The source clip's id.
    pub(crate) const fn source(self) -> &'static str {
        self.source
    }
}

impl core::fmt::Display for VideoId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self.rung {
            None => f.write_str(self.source),
            Some(r) => write!(f, "{}-r{r}", self.source),
        }
    }
}

/// Formats like the id string it stands for.
impl core::fmt::Debug for VideoId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self.rung {
            None => write!(f, "{:?}", self.source),
            Some(_) => write!(f, "{:?}", self.to_string()),
        }
    }
}

impl PartialEq<str> for VideoId {
    fn eq(&self, other: &str) -> bool {
        let Some(rest) = other.strip_prefix(self.source) else {
            return false;
        };
        match self.rung {
            None => rest.is_empty(),
            // Only the canonical decimal rendering: no sign, no leading 0.
            Some(r) => rest.strip_prefix("-r").is_some_and(|digits| {
                digits.bytes().all(|b| b.is_ascii_digit())
                    && (digits.len() == 1 || !digits.starts_with('0'))
                    && digits.parse() == Ok(r)
            }),
        }
    }
}

impl PartialEq<&str> for VideoId {
    fn eq(&self, other: &&str) -> bool {
        *self == **other
    }
}

/// Metadata and calibrated cost model of one video.
///
/// Every field is plain data (the id is a [`VideoId`], the name a static
/// string), so a clone — every workload spec carries one, and recovery
/// re-submits specs — is a copy that allocates nothing.
#[derive(Debug, Clone)]
pub struct VideoMeta {
    /// Short id ("V1".."V6" for vbench).
    pub id: VideoId,
    /// Content name ("holi", "desktop", …).
    pub name: &'static str,
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
    pub(crate) residuals: CostResiduals,
    /// Measured archive throughput anchors.
    pub(crate) archive: ArchiveAnchors,
}

impl VideoMeta {
    /// Creates a synthetic video with formula-default residuals.
    #[allow(clippy::too_many_arguments)]
    pub fn synthetic(
        id: &'static str,
        name: &'static str,
        resolution: Resolution,
        fps: f64,
        entropy: f64,
        source_bitrate: DataRate,
        target_bitrate: DataRate,
    ) -> Self {
        Self {
            id: VideoId::new(id),
            name,
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
    pub(crate) fn mb_per_s(&self) -> f64 {
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
    pub(crate) fn complexity_factor(&self) -> f64 {
        0.55 + 0.075 * self.entropy
    }

    /// Complexity-weighted macroblock rate (the formula cost driver).
    pub(crate) fn weighted_mb_per_s(&self) -> f64 {
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
    pub(crate) fn target_bpp(&self) -> f64 {
        self.target_bitrate.as_bps() / self.pixels_per_s()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn video_ids_render_and_compare_as_their_strings() {
        let v1 = VideoId::new("V1");
        assert_eq!(v1, "V1");
        assert_eq!(format!("{v1} {v1:?}"), "V1 \"V1\"");
        let r2 = v1.rung(2);
        assert_eq!(r2.to_string(), "V1-r2");
        assert_eq!(format!("{r2:?}"), "\"V1-r2\"");
        assert_eq!(r2, "V1-r2");
        for other in ["V1", "V1-r", "V1-r02", "V1-r+2", "V1-r12", "V2-r2"] {
            assert_ne!(r2, other);
        }
        assert_ne!(v1, "V10");
        assert_eq!(r2.source(), "V1");
    }

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
        assert!((v.source_bitrate.as_bps() / v.pixels_per_s() - 2.0 * expected).abs() < 1e-12);
    }

    #[test]
    fn display_resolution() {
        assert_eq!(format!("{}", Resolution::new(1920, 1080)), "1920x1080");
    }
}
