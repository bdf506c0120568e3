//! Frame-level bitstream model: GOP structure and the migration checkpoint.
//!
//! The flow-level experiments use average bitrates; this module adds the
//! frame-level structure underneath — I-frames several times larger than
//! P/B frames — and sizes the state a live session carries when it
//! migrates mid-stream.

use socc_sim::units::DataSize;

use crate::video::VideoMeta;

/// Frame type in an H.264-like stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// Intra-coded (keyframe).
    I,
    /// Predicted.
    P,
    /// Bi-predicted.
    B,
}

/// GOP structure parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GopStructure {
    /// Frames per GOP (keyframe interval).
    pub length: usize,
    /// Consecutive B-frames between references.
    pub b_frames: usize,
    /// Mean I-frame size relative to the average frame.
    pub i_ratio: f64,
    /// Mean P-frame size relative to the average frame.
    pub p_ratio: f64,
}

impl GopStructure {
    /// A typical live-streaming GOP: 2-second keyframe interval at 30 fps,
    /// two B-frames.
    pub fn live_default() -> Self {
        Self {
            length: 60,
            b_frames: 2,
            i_ratio: 6.0,
            p_ratio: 1.1,
        }
    }

    /// Frame kind at a position within the GOP.
    pub fn kind_at(&self, index: usize) -> FrameKind {
        let pos = index % self.length;
        if pos == 0 {
            FrameKind::I
        } else if self.b_frames > 0 && pos % (self.b_frames + 1) != 0 {
            FrameKind::B
        } else {
            FrameKind::P
        }
    }

    /// Mean B-frame size relative to the average frame, derived so a GOP's
    /// total equals `length` average frames.
    pub fn b_ratio(&self) -> f64 {
        let (mut i, mut p, mut b) = (0usize, 0usize, 0usize);
        for idx in 0..self.length {
            match self.kind_at(idx) {
                FrameKind::I => i += 1,
                FrameKind::P => p += 1,
                FrameKind::B => b += 1,
            }
        }
        if b == 0 {
            return 0.0;
        }
        let remaining = self.length as f64 - i as f64 * self.i_ratio - p as f64 * self.p_ratio;
        (remaining / b as f64).max(0.05)
    }

    /// Relative mean size of a frame kind.
    pub fn ratio_of(&self, kind: FrameKind) -> f64 {
        match kind {
            FrameKind::I => self.i_ratio,
            FrameKind::P => self.p_ratio,
            FrameKind::B => self.b_ratio(),
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
    use socc_sim::rng::SimRng;
    use socc_sim::units::DataRate;

    /// Generates per-frame sizes for a video at a target bitrate.
    ///
    /// Size jitter grows with content entropy: screen content (V2/V4) is almost
    /// deterministic, camera content fluctuates.
    fn frame_sizes(
        video: &VideoMeta,
        target: DataRate,
        gop: GopStructure,
        frames: usize,
        rng: &mut SimRng,
    ) -> Vec<(FrameKind, DataSize)> {
        let avg_bits = target.as_bps() / video.fps;
        let jitter_sigma = 0.04 + 0.035 * video.entropy;
        (0..frames)
            .map(|i| {
                let kind = gop.kind_at(i);
                let mean = avg_bits * gop.ratio_of(kind);
                let size = mean * rng.lognormal(-jitter_sigma * jitter_sigma / 2.0, jitter_sigma);
                (kind, DataSize::bits(size.max(64.0)))
            })
            .collect()
    }

    /// Leaky-bucket VBV compliance check.
    ///
    /// The decoder drains at `target`; each frame must fit the buffer when it
    /// arrives. Returns the peak buffer occupancy as a fraction of
    /// `buffer` if compliant, or `None` on underflow/overflow.
    fn vbv_check(
        sizes: &[(FrameKind, DataSize)],
        fps: f64,
        target: DataRate,
        buffer: DataSize,
    ) -> Option<f64> {
        let drain_per_frame = target.as_bps() / fps;
        let cap = buffer.as_bits();
        // Start half-full (standard initial delay).
        let mut level = cap / 2.0;
        let mut peak: f64 = level;
        for (_, size) in sizes {
            level += size.as_bits();
            if level > cap {
                return None; // encoder overflowed the client buffer
            }
            peak = peak.max(level);
            level = (level - drain_per_frame).max(0.0);
        }
        Some(peak / cap)
    }

    #[test]
    fn gop_pattern_is_periodic() {
        let gop = GopStructure::live_default();
        assert_eq!(gop.kind_at(0), FrameKind::I);
        assert_eq!(gop.kind_at(60), FrameKind::I);
        assert_eq!(gop.kind_at(3), FrameKind::P);
        assert_eq!(gop.kind_at(1), FrameKind::B);
        assert_eq!(gop.kind_at(2), FrameKind::B);
    }

    #[test]
    fn gop_budget_conserved() {
        // Sum of (count × ratio) over one GOP equals GOP length.
        let gop = GopStructure::live_default();
        let mut total = 0.0;
        for i in 0..gop.length {
            total += gop.ratio_of(gop.kind_at(i));
        }
        assert!(
            (total - gop.length as f64).abs() / (gop.length as f64) < 0.01,
            "total {total}"
        );
    }

    #[test]
    fn mean_bitrate_matches_target() {
        let v = vbench::by_id("V1").unwrap();
        let mut rng = SimRng::seed(3);
        let n = 3000;
        let sizes = frame_sizes(
            &v,
            v.target_bitrate,
            GopStructure::live_default(),
            n,
            &mut rng,
        );
        let total_bits: f64 = sizes.iter().map(|(_, s)| s.as_bits()).sum();
        let rate = total_bits / (n as f64 / v.fps);
        let target = v.target_bitrate.as_bps();
        assert!(
            (rate - target).abs() / target < 0.05,
            "rate {rate} vs {target}"
        );
    }

    #[test]
    fn i_frames_dominate() {
        let v = vbench::by_id("V5").unwrap();
        let mut rng = SimRng::seed(4);
        let sizes = frame_sizes(
            &v,
            v.target_bitrate,
            GopStructure::live_default(),
            600,
            &mut rng,
        );
        let mean_of = |kind: FrameKind| {
            let xs: Vec<f64> = sizes
                .iter()
                .filter(|(k, _)| *k == kind)
                .map(|(_, s)| s.as_bits())
                .collect();
            xs.iter().sum::<f64>() / xs.len() as f64
        };
        assert!(mean_of(FrameKind::I) > 3.0 * mean_of(FrameKind::P));
        assert!(mean_of(FrameKind::P) > mean_of(FrameKind::B));
    }

    #[test]
    fn screen_content_has_less_jitter() {
        let v2 = vbench::by_id("V2").unwrap(); // entropy 0.2
        let v5 = vbench::by_id("V5").unwrap(); // entropy 7.7
        let cv = |video: &crate::video::VideoMeta, seed| {
            let mut rng = SimRng::seed(seed);
            let sizes = frame_sizes(
                video,
                video.target_bitrate,
                GopStructure::live_default(),
                2000,
                &mut rng,
            );
            // Compare P-frames only to exclude GOP structure.
            let xs: Vec<f64> = sizes
                .iter()
                .filter(|(k, _)| *k == FrameKind::P)
                .map(|(_, s)| s.as_bits())
                .collect();
            let mean = xs.iter().sum::<f64>() / xs.len() as f64;
            let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64;
            var.sqrt() / mean
        };
        assert!(cv(&v5, 8) > 3.0 * cv(&v2, 8));
    }

    #[test]
    fn vbv_passes_with_generous_buffer_fails_when_tiny() {
        let v = vbench::by_id("V3").unwrap();
        let mut rng = SimRng::seed(5);
        let sizes = frame_sizes(
            &v,
            v.target_bitrate,
            GopStructure::live_default(),
            600,
            &mut rng,
        );
        // 2-second buffer: fine.
        let buf2s = DataSize::bits(v.target_bitrate.as_bps() * 2.0);
        assert!(vbv_check(&sizes, v.fps, v.target_bitrate, buf2s).is_some());
        // 100 ms buffer: the I-frames overflow it.
        let tiny = DataSize::bits(v.target_bitrate.as_bps() * 0.1);
        assert!(vbv_check(&sizes, v.fps, v.target_bitrate, tiny).is_none());
    }

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

    #[test]
    fn vbv_peak_fraction_bounded() {
        let v = vbench::by_id("V1").unwrap();
        let mut rng = SimRng::seed(6);
        let sizes = frame_sizes(
            &v,
            v.target_bitrate,
            GopStructure::live_default(),
            600,
            &mut rng,
        );
        let buf = DataSize::bits(v.target_bitrate.as_bps() * 4.0);
        let peak = vbv_check(&sizes, v.fps, v.target_bitrate, buf).unwrap();
        assert!(peak > 0.0 && peak <= 1.0);
    }
}
