//! The GOP structure of a live stream and the state a session carries
//! when it migrates mid-stream.
//!
//! The flow-level experiments use average bitrates; this module sizes the
//! migration checkpoint from the GOP length, the B-frame setting and the
//! stream's resolution and bitrate.

use socc_sim::units::DataSize;

use crate::video::VideoMeta;

/// GOP structure parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GopStructure {
    /// Frames per GOP (keyframe interval).
    pub length: usize,
    /// Consecutive B-frames between references.
    pub b_frames: usize,
}

impl GopStructure {
    /// A typical live-streaming GOP: 2-second keyframe interval at 30 fps,
    /// two B-frames.
    pub fn live_default() -> Self {
        Self {
            length: 60,
            b_frames: 2,
        }
    }

    /// State a live transcode session must move to resume on another SoC
    /// at the next GOP boundary (the mid-stream migration checkpoint).
    ///
    /// Three parts, all derivable from the stream's parameters:
    ///
    /// 1. **Decoded reference pictures** — the pictures a mid-GOP restart
    ///    would otherwise have to re-derive: one forward reference, plus
    ///    one more when B-frames are in use, each a raw YUV 4:2:0 frame
    ///    (1.5 bytes per pixel).
    /// 2. **Encoder context** — per-macroblock mode/motion/rate-control
    ///    state (`CHECKPOINT_MB_STATE_BYTES` per macroblock) plus a
    ///    fixed header/SPS/PPS/lookahead block
    ///    (`CHECKPOINT_FIXED_BYTES`).
    /// 3. **In-flight output** — the not-yet-delivered remainder of the
    ///    current GOP at the target bitrate; a migration lands mid-GOP on
    ///    average, so half a GOP of output bits is in flight.
    ///
    /// Divided by the calibrated inter-SoC TCP goodput (~935.8 Mbps of
    /// the 1 GbE fabric) this sets the live-stream migration MTTR; the
    /// farm driver in `socc-cluster` prices every fault-driven migration
    /// through it.
    pub fn checkpoint_size(&self, video: &VideoMeta) -> DataSize {
        let reference_frames = 1 + usize::from(self.b_frames > 0);
        let reference_bytes = reference_frames as f64 * video.resolution.pixels() as f64 * 1.5;
        let context_bytes = video.resolution.macroblocks() as f64 * CHECKPOINT_MB_STATE_BYTES
            + CHECKPOINT_FIXED_BYTES;
        let gop_secs = self.length as f64 / video.fps;
        let inflight_bytes = video.target_bitrate.as_bps() * gop_secs / 2.0 / 8.0;
        DataSize::bytes(reference_bytes + context_bytes + inflight_bytes)
    }
}

/// Per-macroblock encoder state (modes, motion vectors, rate-control
/// history) carried in a migration checkpoint.
pub(crate) const CHECKPOINT_MB_STATE_BYTES: f64 = 96.0;

/// Fixed per-session checkpoint overhead: parameter sets, rate-control
/// model, lookahead buffers.
pub(crate) const CHECKPOINT_FIXED_BYTES: f64 = 256.0 * 1024.0;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vbench;

    #[test]
    fn checkpoint_grows_with_resolution_and_bitrate() {
        let gop = GopStructure::live_default();
        let v1 = vbench::by_id("V1").unwrap(); // 480p
        let v5 = vbench::by_id("V5").unwrap(); // 1080p
        let v6 = vbench::by_id("V6").unwrap(); // 4K
        let c1 = gop.checkpoint_size(&v1).as_bytes();
        let c5 = gop.checkpoint_size(&v5).as_bytes();
        let c6 = gop.checkpoint_size(&v6).as_bytes();
        assert!(c1 < c5 && c5 < c6, "{c1} {c5} {c6}");
        // Order of magnitude: single-digit MB for 480p-1080p, tens for 4K
        // (dominated by the two raw reference pictures).
        assert!((1.0e6..8.0e6).contains(&c1), "{c1}");
        assert!((4.0e6..2.0e7).contains(&c5), "{c5}");
        assert!((1.0e7..6.0e7).contains(&c6), "{c6}");
    }

    #[test]
    fn checkpoint_reference_count_follows_b_frames() {
        let v = vbench::by_id("V3").unwrap();
        let with_b = GopStructure::live_default();
        let no_b = GopStructure {
            b_frames: 0,
            ..with_b
        };
        let diff = with_b.checkpoint_size(&v).as_bytes() - no_b.checkpoint_size(&v).as_bytes();
        let frame = v.resolution.pixels() as f64 * 1.5;
        assert!((diff - frame).abs() < 1.0, "one extra reference picture");
    }
}
