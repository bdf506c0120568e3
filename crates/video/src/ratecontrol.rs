//! Rate control: target vs achievable output bitrate per encoder.
//!
//! Fig. 9's finding: "in most cases, the hardware codec can meet the bitrate
//! constraint, but it struggles to meet a relatively low bitrate cap" — the
//! mobile encoder has a bits-per-pixel *floor* below which it will not
//! compress, even overshooting the source stream (V2). Software x264 and
//! NVENC track low targets accurately.

use socc_sim::units::DataRate;

use crate::video::VideoMeta;

/// Rate-control mode of a transcode.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RateControl {
    /// Constant bitrate toward a target (live streaming transcoding, §4).
    Cbr(DataRate),
    /// Constant quality (archive transcoding; value is a CRF-like quality
    /// index, lower = better).
    Quality(f64),
}

/// Encoder families with distinct rate-control behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EncoderKind {
    /// libx264 software encoding (SoC CPU or Intel CPU).
    X264,
    /// Android MediaCodec driving the mobile hardware codec.
    MediaCodec,
    /// NVIDIA NVENC.
    Nvenc,
}

impl EncoderKind {
    /// The encoder's bits-per-pixel floor: the smallest output density its
    /// rate control can actually produce.
    ///
    /// MediaCodec's floor is calibrated so V2's 90.5 kbps target overshoots
    /// past even the 181 kbps source (Fig. 9); software encoders can go far
    /// lower.
    pub fn min_bits_per_pixel(self) -> f64 {
        match self {
            EncoderKind::X264 => 0.0008,
            EncoderKind::MediaCodec => 0.007,
            EncoderKind::Nvenc => 0.0015,
        }
    }

    /// CBR tracking slack: output may exceed the target by this relative
    /// margin even above the floor (mobile encoders track loosely, §4.3
    /// "less stringent quality and bitrate specifications").
    pub(crate) fn cbr_overshoot(self) -> f64 {
        match self {
            EncoderKind::X264 => 0.0,
            EncoderKind::MediaCodec => 0.04,
            EncoderKind::Nvenc => 0.01,
        }
    }

    /// Output bitrate actually produced for a video under a rate control.
    pub fn output_bitrate(self, video: &VideoMeta, rc: RateControl) -> DataRate {
        match rc {
            RateControl::Cbr(target) => {
                let floor = DataRate::bps(self.min_bits_per_pixel() * video.pixels_per_s());
                let tracked = target * (1.0 + self.cbr_overshoot());
                tracked.max(floor)
            }
            RateControl::Quality(crf) => {
                // Quality mode: bits required grow with content entropy and
                // drop ~12% per CRF step (x264's rule of thumb).
                let ref_bpp = 0.035 + 0.028 * video.entropy;
                let bpp = ref_bpp * 0.88f64.powf(crf - 23.0);
                DataRate::bps(
                    (bpp * video.pixels_per_s())
                        .max(self.min_bits_per_pixel() * video.pixels_per_s()),
                )
            }
        }
    }

    /// Returns `true` if the encoder meets the CBR target within 5%.
    #[cfg(test)]
    pub(crate) fn meets_target(self, video: &VideoMeta, target: DataRate) -> bool {
        let out = self.output_bitrate(video, RateControl::Cbr(target));
        out.as_bps() <= target.as_bps() * 1.05
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vbench;

    #[test]
    fn x264_meets_all_vbench_targets() {
        for v in vbench::videos() {
            assert!(
                EncoderKind::X264.meets_target(&v, v.target_bitrate),
                "{} missed target",
                v.id
            );
        }
    }

    #[test]
    fn mediacodec_overshoots_v2_past_source() {
        // Fig. 9: "setting a target bitrate of 90.5 Kbps for V2 will make
        // the encoder create a higher bitrate output (even higher than the
        // origin video stream)".
        let v2 = vbench::by_id("V2").unwrap();
        let out = EncoderKind::MediaCodec.output_bitrate(&v2, RateControl::Cbr(v2.target_bitrate));
        assert!(
            out > v2.source_bitrate,
            "out {} <= source {}",
            out,
            v2.source_bitrate
        );
    }

    #[test]
    fn mediacodec_overshoots_v4_but_not_past_source() {
        let v4 = vbench::by_id("V4").unwrap();
        let out = EncoderKind::MediaCodec.output_bitrate(&v4, RateControl::Cbr(v4.target_bitrate));
        assert!(out.as_bps() > v4.target_bitrate.as_bps() * 1.3);
        assert!(out < v4.source_bitrate);
    }

    #[test]
    fn mediacodec_meets_high_bitrate_targets() {
        // Fig. 9: "in most cases, the hardware codec can meet the bitrate
        // constraint" — the high-entropy videos have generous targets.
        for id in ["V1", "V3", "V5", "V6"] {
            let v = vbench::by_id(id).unwrap();
            let out =
                EncoderKind::MediaCodec.output_bitrate(&v, RateControl::Cbr(v.target_bitrate));
            assert!(
                out.as_bps() <= v.target_bitrate.as_bps() * 1.05,
                "{id}: {out}"
            );
        }
    }

    #[test]
    fn ultra_low_targets_always_hit_the_floor() {
        // §4.2: "the same behaviors were confirmed … on ultra-low bitrate
        // settings".
        for v in vbench::videos() {
            let tiny = DataRate::kbps(10.0);
            let out = EncoderKind::MediaCodec.output_bitrate(&v, RateControl::Cbr(tiny));
            assert!(out.as_bps() > tiny.as_bps() * 2.0, "{}", v.id);
        }
    }

    #[test]
    fn quality_mode_bitrate_grows_with_entropy() {
        let v2 = vbench::by_id("V2").unwrap(); // entropy 0.2
        let v5 = vbench::by_id("V5").unwrap(); // entropy 7.7, same resolution class
        let b2 = EncoderKind::X264.output_bitrate(&v2, RateControl::Quality(23.0));
        let b5 = EncoderKind::X264.output_bitrate(&v5, RateControl::Quality(23.0));
        // Normalize by pixel rate to compare densities.
        assert!(b5.as_bps() / v5.pixels_per_s() > 3.0 * (b2.as_bps() / v2.pixels_per_s()));
    }

    #[test]
    fn lower_crf_means_more_bits() {
        let v = vbench::by_id("V1").unwrap();
        let hi_q = EncoderKind::X264.output_bitrate(&v, RateControl::Quality(18.0));
        let lo_q = EncoderKind::X264.output_bitrate(&v, RateControl::Quality(28.0));
        assert!(hi_q > lo_q);
    }
}
