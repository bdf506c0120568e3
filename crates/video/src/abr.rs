//! Adaptive-bitrate (ABR) ladders: one ingest, many renditions.
//!
//! Real live-streaming services transcode every ingest into a ladder of
//! renditions (1080p/720p/480p/…); the per-stream numbers of §4 are the
//! building block. This module plans ladders, prices them against a SoC's
//! CPU and hardware-codec budgets, and reports the egress fan-out — the
//! capacity-planning layer on top of the Table 3 analysis.

use socc_sim::units::DataRate;

use crate::video::{Resolution, VideoMeta};

/// One rung of an ABR ladder.
#[derive(Debug, Clone)]
pub struct Rendition {
    /// Output resolution.
    pub(crate) resolution: Resolution,
    /// Output frame rate (≤ source).
    pub(crate) fps: f64,
    /// Target bitrate.
    pub bitrate: DataRate,
}

/// A ladder specification.
#[derive(Debug, Clone)]
pub struct Ladder {
    /// Renditions, highest first.
    pub renditions: Vec<Rendition>,
}

impl Ladder {
    /// A standard three-rung live ladder derived from the source: full,
    /// 720p-class, 480p-class, with bitrates scaled by pixel count.
    pub fn standard(source: &VideoMeta) -> Self {
        let src_px = source.resolution.pixels() as f64;
        let rung = |w: u32, h: u32| {
            let px = (w as u64 * h as u64) as f64;
            Rendition {
                resolution: Resolution::new(w, h),
                fps: source.fps.min(30.0),
                bitrate: DataRate::bps(source.target_bitrate.as_bps() * (px / src_px).powf(0.75)),
            }
        };
        let mut renditions = vec![Rendition {
            resolution: source.resolution,
            fps: source.fps,
            bitrate: source.target_bitrate,
        }];
        if source.resolution.pixels() > 1280 * 720 {
            renditions.push(rung(1280, 720));
        }
        if source.resolution.pixels() > 854 * 480 {
            renditions.push(rung(854, 480));
        }
        Self { renditions }
    }

    /// The per-rendition transcode jobs as synthetic videos (sharing the
    /// source's entropy — content complexity survives downscaling).
    pub fn jobs(&self, source: &VideoMeta) -> Vec<VideoMeta> {
        self.renditions
            .iter()
            .enumerate()
            .map(|(i, r)| {
                let mut job = VideoMeta::synthetic(
                    source.id.source(),
                    source.name,
                    r.resolution,
                    r.fps,
                    source.entropy,
                    source.source_bitrate,
                    r.bitrate,
                );
                job.id = source.id.rung(i as u8);
                job
            })
            .collect()
    }

    /// Total egress bitrate of the ladder (all renditions out).
    pub fn egress(&self) -> DataRate {
        DataRate::bps(self.renditions.iter().map(|r| r.bitrate.as_bps()).sum())
    }
}

/// Cost of running one full ladder on a SoC.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LadderCost {
    /// CPU perf-units if encoded in software.
    pub cpu_pu: f64,
    /// Hardware-codec load (weighted MB/s) if encoded on the codec.
    pub hw_mb_s: f64,
    /// Hardware-codec sessions needed.
    pub hw_sessions: usize,
    /// Network traffic: ingest in + all renditions out, Mbps.
    pub net_mbps: f64,
    /// Max complete ladders per SoC on the CPU.
    pub ladders_per_soc_cpu: usize,
    /// Max complete ladders per SoC on the hardware codec.
    pub ladders_per_soc_hw: usize,
}

/// Prices a ladder for a source video.
pub fn price_ladder(source: &VideoMeta, ladder: &Ladder) -> LadderCost {
    let jobs = ladder.jobs(source);
    let cpu_pu: f64 = jobs.iter().map(VideoMeta::cpu_cost_pu).sum();
    let hw_mb_s: f64 = jobs.iter().map(VideoMeta::hw_cost_mb_s).sum();
    let net_mbps = source.source_bitrate.as_mbps() + ladder.egress().as_mbps();
    let soc_cpu = socc_hw::calib::SOC_CPU_TRANSCODE_PU;
    let venus = socc_hw::codec::HwCodecModel::venus_sd865();
    let by_sessions = venus.max_sessions / jobs.len().max(1);
    let by_throughput = (venus.throughput_mb_per_s / hw_mb_s).floor() as usize;
    LadderCost {
        cpu_pu,
        hw_mb_s,
        hw_sessions: jobs.len(),
        net_mbps,
        ladders_per_soc_cpu: (soc_cpu / cpu_pu).floor() as usize,
        ladders_per_soc_hw: by_sessions.min(by_throughput),
    }
}

/// Whole-cluster ladder capacity on a given unit kind, respecting the
/// PCB network bound (in+out per Table 3's convention).
pub fn cluster_ladder_capacity(source: &VideoMeta, ladder: &Ladder, hw: bool) -> usize {
    let cost = price_ladder(source, ladder);
    let per_soc = if hw {
        cost.ladders_per_soc_hw
    } else {
        cost.ladders_per_soc_cpu
    };
    // Network bound: per-PCB 1 Gbps over 5 SoCs.
    let per_pcb_by_net = (socc_hw::calib::PCB_UPLINK_BPS / 1e6 / cost.net_mbps).floor() as usize;
    let per_soc_by_net = per_pcb_by_net.div_ceil(socc_hw::calib::SOCS_PER_PCB);
    per_soc.min(per_soc_by_net.max(per_pcb_by_net / socc_hw::calib::SOCS_PER_PCB))
        * socc_hw::calib::CLUSTER_SOC_COUNT
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::TranscodeUnit;
    use crate::vbench;

    #[test]
    fn standard_ladder_shape() {
        let v5 = vbench::by_id("V5").unwrap(); // 1080p
        let ladder = Ladder::standard(&v5);
        assert_eq!(ladder.renditions.len(), 3);
        assert_eq!(ladder.renditions[1].resolution, Resolution::new(1280, 720));
        // Lower rungs get fewer bits.
        assert!(ladder.renditions[1].bitrate < ladder.renditions[0].bitrate);
        assert!(ladder.renditions[2].bitrate < ladder.renditions[1].bitrate);
    }

    #[test]
    fn small_source_gets_short_ladder() {
        let v1 = vbench::by_id("V1").unwrap(); // 480p
        assert_eq!(Ladder::standard(&v1).renditions.len(), 1);
        let v3 = vbench::by_id("V3").unwrap(); // 720p
        assert_eq!(Ladder::standard(&v3).renditions.len(), 2);
    }

    #[test]
    fn ladder_costs_more_than_single_stream() {
        let v5 = vbench::by_id("V5").unwrap();
        let ladder = Ladder::standard(&v5);
        let cost = price_ladder(&v5, &ladder);
        assert!(cost.cpu_pu > v5.cpu_cost_pu());
        assert!(cost.ladders_per_soc_cpu < TranscodeUnit::SocCpu.max_live_streams(&v5));
        assert!(cost.ladders_per_soc_cpu >= 1, "at least one ladder fits");
    }

    #[test]
    fn hw_codec_fits_more_ladders_than_cpu() {
        let v5 = vbench::by_id("V5").unwrap();
        let ladder = Ladder::standard(&v5);
        let cost = price_ladder(&v5, &ladder);
        assert!(cost.ladders_per_soc_hw >= cost.ladders_per_soc_cpu);
        assert_eq!(cost.hw_sessions, 3);
    }

    #[test]
    fn egress_exceeds_single_rendition() {
        let v6 = vbench::by_id("V6").unwrap();
        let ladder = Ladder::standard(&v6);
        assert!(ladder.egress() > v6.target_bitrate);
        let cost = price_ladder(&v6, &ladder);
        assert!(cost.net_mbps > v6.stream_traffic().as_mbps());
    }

    #[test]
    fn cluster_capacity_positive_and_network_bounded() {
        let v5 = vbench::by_id("V5").unwrap();
        let ladder = Ladder::standard(&v5);
        let cap_cpu = cluster_ladder_capacity(&v5, &ladder, false);
        let cap_hw = cluster_ladder_capacity(&v5, &ladder, true);
        assert!(cap_cpu >= 60, "at least one ladder per SoC: {cap_cpu}");
        assert!(cap_hw >= cap_cpu);
        // The fan-out traffic must not exceed PCB bounds implied by the cap.
        let cost = price_ladder(&v5, &ladder);
        let per_soc = cap_hw / 60;
        assert!(
            per_soc as f64 * cost.net_mbps * 5.0 <= 1000.0 * 1.35,
            "net bound respected"
        );
    }
}
