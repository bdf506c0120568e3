//! Transcode execution units: which hardware runs a transcode, how many
//! streams it sustains, and what power it draws.
//!
//! A *unit* is the granularity the paper schedules at: one SoC's CPU
//! complex, one SoC's hardware codec, one 8-core Intel container, or one
//! A40's NVENC engine. Whole-server numbers multiply by the unit count
//! (60 / 60 / 10 / 8).

use socc_hw::codec::HwCodecModel;
use socc_hw::cpu::CpuModel;
use socc_hw::power::Utilization;
use socc_sim::units::Power;

use crate::video::VideoMeta;

/// A transcode execution unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TranscodeUnit {
    /// The 8-core Kryo 585 complex of one SoC, running libx264.
    SocCpu,
    /// The Venus hardware codec of one SoC, driven through MediaCodec.
    SocHwCodec,
    /// One 8-core Docker container of the Intel Xeon host, running libx264.
    IntelContainer,
    /// The NVENC engine of one NVIDIA A40.
    A40Nvenc,
}

impl TranscodeUnit {
    /// All units, in reporting order.
    pub const ALL: [TranscodeUnit; 4] = [
        TranscodeUnit::SocCpu,
        TranscodeUnit::SocHwCodec,
        TranscodeUnit::IntelContainer,
        TranscodeUnit::A40Nvenc,
    ];

    /// Number of such units in the unit's whole server.
    pub fn units_per_server(self) -> usize {
        match self {
            TranscodeUnit::SocCpu | TranscodeUnit::SocHwCodec => socc_hw::calib::CLUSTER_SOC_COUNT,
            TranscodeUnit::IntelContainer => socc_hw::calib::INTEL_CONTAINER_COUNT,
            TranscodeUnit::A40Nvenc => 8,
        }
    }

    fn cpu_model(self) -> CpuModel {
        match self {
            TranscodeUnit::SocCpu | TranscodeUnit::SocHwCodec => CpuModel::kryo_585(),
            TranscodeUnit::IntelContainer => CpuModel::xeon_5218r_container(),
            TranscodeUnit::A40Nvenc => CpuModel::xeon_5218r_container(),
        }
    }

    fn codec_model(self) -> Option<HwCodecModel> {
        match self {
            TranscodeUnit::SocHwCodec => Some(HwCodecModel::venus_sd865()),
            TranscodeUnit::A40Nvenc => Some(HwCodecModel::nvenc_a40()),
            _ => None,
        }
    }

    /// Maximum concurrent live streams of `video` this unit sustains while
    /// keeping every stream at source fps (§3 "no stream's performance
    /// (FPS) fell below that of the origin video stream").
    pub fn max_live_streams(self, video: &VideoMeta) -> usize {
        match self {
            TranscodeUnit::SocCpu | TranscodeUnit::IntelContainer => {
                (self.cpu_model().transcode_capacity() / video.cpu_cost_pu()).floor() as usize
            }
            TranscodeUnit::SocHwCodec => {
                let codec = self.codec_model().expect("hw unit");
                codec.max_streams(video.hw_cost_mb_s())
            }
            TranscodeUnit::A40Nvenc => {
                let codec = self.codec_model().expect("hw unit");
                codec.max_streams(video.nvenc_cost_mb_s())
            }
        }
    }

    /// Utilization of the unit's primary resource while carrying `streams`
    /// live streams of `video`.
    pub(crate) fn live_utilization(self, video: &VideoMeta, streams: usize) -> Utilization {
        match self {
            TranscodeUnit::SocCpu | TranscodeUnit::IntelContainer => Utilization::from_ratio(
                streams as f64 * video.cpu_cost_pu(),
                self.cpu_model().transcode_capacity(),
            ),
            TranscodeUnit::SocHwCodec => {
                let codec = self.codec_model().expect("hw unit");
                Utilization::from_ratio(
                    streams as f64 * video.hw_cost_mb_s(),
                    codec.throughput_mb_per_s,
                )
            }
            TranscodeUnit::A40Nvenc => {
                let codec = self.codec_model().expect("hw unit");
                Utilization::from_ratio(
                    streams as f64 * video.nvenc_cost_mb_s(),
                    codec.throughput_mb_per_s,
                )
            }
        }
    }

    /// Workload (idle-excluded) power of the unit carrying `streams` live
    /// streams of `video`, including delegation-daemon CPU power for
    /// hardware codecs (§4.4).
    pub fn live_workload_power(self, video: &VideoMeta, streams: usize) -> Power {
        if streams == 0 {
            return Power::ZERO;
        }
        let util = self.live_utilization(video, streams);
        match self {
            TranscodeUnit::SocCpu | TranscodeUnit::IntelContainer => {
                self.cpu_model().workload_power(util)
            }
            TranscodeUnit::SocHwCodec => {
                let codec = self.codec_model().expect("hw unit");
                let codec_power = codec.workload_power(util);
                let deleg_util = Utilization::from_ratio(
                    streams as f64 * codec.delegation_cpu_pu_per_session,
                    self.cpu_model().transcode_capacity(),
                );
                codec_power + self.cpu_model().workload_power(deleg_util)
            }
            TranscodeUnit::A40Nvenc => {
                // Host-side FFmpeg feeding cost is folded into the GPU's
                // activation/dynamic terms (calibrated against Table 4's
                // 1,231 W whole-server peak).
                self.codec_model().expect("hw unit").workload_power(util)
            }
        }
    }

    /// Live energy efficiency at full load: streams per watt.
    pub fn live_streams_per_watt(self, video: &VideoMeta) -> f64 {
        let streams = self.max_live_streams(video);
        if streams == 0 {
            return 0.0;
        }
        streams as f64 / self.live_workload_power(video, streams).as_watts()
    }

    /// Single-job archive transcode throughput in frames/s, or `None` when
    /// the unit cannot run archive jobs (MediaCodec lacks the quality
    /// controls archive transcoding requires, §4.2).
    pub fn archive_fps(self, video: &VideoMeta) -> Option<f64> {
        match self {
            TranscodeUnit::SocCpu => Some(
                video
                    .archive
                    .soc_fps
                    .unwrap_or_else(|| self.estimate_archive_fps(video)),
            ),
            TranscodeUnit::IntelContainer => Some(
                video
                    .archive
                    .intel_fps
                    .unwrap_or_else(|| self.estimate_archive_fps(video)),
            ),
            TranscodeUnit::A40Nvenc => Some(video.archive.a40_fps.unwrap_or_else(|| {
                // One NVENC session sustains ≈1 M weighted macroblocks/s in
                // quality mode.
                1.0e6 / (video.weighted_mb_per_s() / video.fps)
            })),
            TranscodeUnit::SocHwCodec => None,
        }
    }

    /// Formula estimate of archive fps for CPU units: live cost inflated by
    /// a quality factor that grows with entropy (slower presets work much
    /// harder on complex content).
    fn estimate_archive_fps(self, video: &VideoMeta) -> f64 {
        let quality_factor = 9.0 + 4.2 * video.entropy;
        self.cpu_model().transcode_capacity() / (video.cpu_cost_pu() * quality_factor) * video.fps
    }

    /// Workload power while running one archive job flat-out.
    pub(crate) fn archive_workload_power(self, video: &VideoMeta) -> Power {
        match self {
            // x264 archive encoding saturates all cores of the unit.
            TranscodeUnit::SocCpu | TranscodeUnit::IntelContainer => {
                self.cpu_model().workload_power(Utilization::FULL)
            }
            TranscodeUnit::SocHwCodec => Power::ZERO,
            TranscodeUnit::A40Nvenc => {
                let codec = self.codec_model().expect("hw unit");
                let fps = self.archive_fps(video).unwrap_or(0.0);
                let session_load = fps * video.nvenc_cost_mb_s() / video.fps;
                codec.workload_power(Utilization::from_ratio(
                    session_load,
                    codec.throughput_mb_per_s,
                ))
            }
        }
    }

    /// Archive energy efficiency: frames per joule, or `None` if archive is
    /// unsupported on this unit.
    pub fn archive_frames_per_joule(self, video: &VideoMeta) -> Option<f64> {
        let fps = self.archive_fps(video)?;
        let power = self.archive_workload_power(video).as_watts();
        if power <= 0.0 {
            return None;
        }
        Some(fps / power)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vbench;

    #[test]
    fn max_streams_match_table3_for_all_units() {
        let vs = vbench::videos();
        for (i, v) in vs.iter().enumerate() {
            assert_eq!(
                TranscodeUnit::SocCpu.max_live_streams(v),
                vbench::MAX_STREAMS_SOC_CPU[i],
                "{} cpu",
                v.id
            );
            assert_eq!(
                TranscodeUnit::SocHwCodec.max_live_streams(v),
                vbench::MAX_STREAMS_SOC_HW[i],
                "{} hw",
                v.id
            );
            assert_eq!(
                TranscodeUnit::A40Nvenc.max_live_streams(v),
                vbench::MAX_STREAMS_A40[i],
                "{} nvenc",
                v.id
            );
        }
    }

    #[test]
    fn intel_container_carries_about_twice_soc() {
        for v in vbench::videos() {
            let soc = TranscodeUnit::SocCpu.max_live_streams(&v);
            let intel = TranscodeUnit::IntelContainer.max_live_streams(&v);
            let ratio = intel as f64 / soc as f64;
            assert!((1.5..=2.5).contains(&ratio), "{}: {ratio}", v.id);
        }
    }

    #[test]
    fn soc_cpu_live_tpe_2_5_to_3_3x_intel() {
        // §4.1: SoC CPUs are 2.58×–3.21× more energy-efficient than the
        // Intel CPU in live streaming transcoding.
        for v in vbench::videos() {
            let soc = TranscodeUnit::SocCpu.live_streams_per_watt(&v);
            let intel = TranscodeUnit::IntelContainer.live_streams_per_watt(&v);
            let ratio = soc / intel;
            assert!((2.4..=3.4).contains(&ratio), "{}: {ratio}", v.id);
        }
    }

    #[test]
    fn soc_cpu_live_tpe_beats_a40() {
        // §4.1: 1.83×–4.53× more energy-efficient than the A40 (our V2
        // lands slightly above the band; see EXPERIMENTS.md).
        let mut ratios = Vec::new();
        for v in vbench::videos() {
            let soc = TranscodeUnit::SocCpu.live_streams_per_watt(&v);
            let a40 = TranscodeUnit::A40Nvenc.live_streams_per_watt(&v);
            let ratio = soc / a40;
            assert!((1.5..=6.5).contains(&ratio), "{}: {ratio}", v.id);
            ratios.push(ratio);
        }
        let geomean = socc_sim::stats::geomean(&ratios).unwrap();
        assert!((2.0..=4.5).contains(&geomean), "geomean {geomean}");
    }

    #[test]
    fn hw_codec_tpe_gain_over_cpu() {
        // Fig. 8b: ≈2.5× (geomean) on low-entropy V1/V2/V4, 4.7×–5.5× on
        // high-entropy V3/V5/V6.
        let vs = vbench::videos();
        let gain = |v: &crate::video::VideoMeta| {
            TranscodeUnit::SocHwCodec.live_streams_per_watt(v)
                / TranscodeUnit::SocCpu.live_streams_per_watt(v)
        };
        let low: Vec<f64> = ["V1", "V2", "V4"]
            .iter()
            .map(|id| gain(vs.iter().find(|v| v.id == *id).unwrap()))
            .collect();
        let low_geo = socc_sim::stats::geomean(&low).unwrap();
        assert!(
            (2.0..=3.2).contains(&low_geo),
            "low-entropy geomean {low_geo}"
        );
        for id in ["V3", "V5", "V6"] {
            let g = gain(vs.iter().find(|v| v.id == id).unwrap());
            assert!((4.3..=6.0).contains(&g), "{id}: {g}");
        }
    }

    #[test]
    fn archive_gpu_loses_only_on_low_entropy() {
        // Fig. 6b: "the NVIDIA GPU performs worse on videos V2 and V4".
        let vs = vbench::videos();
        let fpj = |unit: TranscodeUnit, id: &str| {
            unit.archive_frames_per_joule(vs.iter().find(|v| v.id == id).unwrap())
                .unwrap()
        };
        for id in ["V2", "V4"] {
            assert!(
                fpj(TranscodeUnit::A40Nvenc, id) < fpj(TranscodeUnit::SocCpu, id),
                "{id}: GPU should lose"
            );
        }
        for id in ["V3", "V5", "V6"] {
            assert!(
                fpj(TranscodeUnit::A40Nvenc, id) > fpj(TranscodeUnit::SocCpu, id),
                "{id}: GPU should win"
            );
        }
    }

    #[test]
    fn archive_soc_beats_intel_everywhere() {
        // Fig. 6b: "SoC CPUs consistently outperform the Intel CPU".
        for v in vbench::videos() {
            let soc = TranscodeUnit::SocCpu.archive_frames_per_joule(&v).unwrap();
            let intel = TranscodeUnit::IntelContainer
                .archive_frames_per_joule(&v)
                .unwrap();
            assert!(soc > intel, "{}: {soc} !> {intel}", v.id);
        }
    }

    #[test]
    fn hw_codec_cannot_do_archive() {
        let v = vbench::by_id("V1").unwrap();
        assert!(TranscodeUnit::SocHwCodec.archive_fps(&v).is_none());
    }

    #[test]
    fn zero_streams_zero_power() {
        let v = vbench::by_id("V1").unwrap();
        for unit in TranscodeUnit::ALL {
            assert_eq!(unit.live_workload_power(&v, 0), Power::ZERO);
        }
    }

    #[test]
    fn a40_single_stream_is_wildly_inefficient() {
        // Fig. 7: the A40 processes 0.018 streams/W on one V4 stream.
        let v4 = vbench::by_id("V4").unwrap();
        let p = TranscodeUnit::A40Nvenc
            .live_workload_power(&v4, 1)
            .as_watts();
        let tpe = 1.0 / p;
        assert!((0.012..=0.025).contains(&tpe), "tpe {tpe}");
        // …while the SoC CPU stays two orders of magnitude better.
        let soc = 1.0 / TranscodeUnit::SocCpu.live_workload_power(&v4, 1).as_watts();
        assert!(soc / tpe > 25.0, "soc {soc} vs a40 {tpe}");
    }
}
