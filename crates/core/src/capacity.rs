//! Network-bound analysis of live streaming transcoding (Table 3, §4.4).
//!
//! If every SoC runs its maximum CPU *and* hardware-codec streams, does the
//! fabric hold? The paper's convention counts inbound + outbound traffic of
//! each stream together against the PCB's 1 Gbps and the ESB's 20 Gbps.

use socc_hw::calib;
use socc_video::{TranscodeUnit, VideoMeta};

/// One row of the Table 3 network-bound analysis.
#[derive(Debug, Clone)]
pub struct NetworkBoundRow {
    /// Video id.
    #[cfg(test)]
    pub(crate) video_id: String,
    /// Max live streams per SoC on the CPU.
    pub cpu_streams: usize,
    /// Max live streams per SoC on the hardware codec.
    pub hw_streams: usize,
    /// Per-PCB traffic in Mbps (5 SoCs, in + out).
    pub pcb_mbps: f64,
    /// Per-PCB fraction of the 1 Gbps uplink.
    pub pcb_frac: f64,
    /// Whole-server traffic in Mbps (60 SoCs).
    pub server_mbps: f64,
    /// Whole-server fraction of the 20 Gbps ESB.
    pub server_frac: f64,
}

impl NetworkBoundRow {
    /// Computes the row for one video.
    pub(crate) fn for_video(video: &VideoMeta) -> Self {
        let cpu_streams = TranscodeUnit::SocCpu.max_live_streams(video);
        let hw_streams = TranscodeUnit::SocHwCodec.max_live_streams(video);
        let per_soc_mbps = (cpu_streams + hw_streams) as f64 * video.stream_traffic().as_mbps();
        let pcb_mbps = per_soc_mbps * calib::SOCS_PER_PCB as f64;
        let server_mbps = per_soc_mbps * calib::CLUSTER_SOC_COUNT as f64;
        Self {
            #[cfg(test)]
            video_id: video.id.to_string(),
            cpu_streams,
            hw_streams,
            pcb_mbps,
            pcb_frac: pcb_mbps / (calib::PCB_UPLINK_BPS / 1e6),
            server_mbps,
            server_frac: server_mbps / (calib::ESB_CAPACITY_BPS / 1e6),
        }
    }
}

/// The full Table 3 analysis over the vbench set.
pub fn network_bound_analysis() -> Vec<NetworkBoundRow> {
    socc_video::vbench::videos()
        .iter()
        .map(NetworkBoundRow::for_video)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn v5_slightly_exceeds_pcb_capacity() {
        // Table 3: V5's per-PCB usage is 1,008 Mbps (100.8%) — the only
        // video that oversubscribes a PCB uplink.
        let rows = network_bound_analysis();
        let v5 = rows.iter().find(|r| r.video_id == "V5").unwrap();
        assert!(
            (0.98..=1.04).contains(&v5.pcb_frac),
            "V5 pcb frac {} ({} Mbps)",
            v5.pcb_frac,
            v5.pcb_mbps
        );
        for row in rows.iter().filter(|r| r.video_id != "V5") {
            assert!(row.pcb_frac < 1.0, "{}: {}", row.video_id, row.pcb_frac);
        }
    }

    #[test]
    fn esb_never_bottlenecks() {
        // §4.4: "For the entire SoC Cluster, the ESB's 20 Gbps capacity
        // will not become a bottleneck."
        for row in network_bound_analysis() {
            assert!(
                row.server_frac < 0.65,
                "{}: {}",
                row.video_id,
                row.server_frac
            );
        }
    }

    #[test]
    fn table3_usage_magnitudes() {
        let rows = network_bound_analysis();
        let by = |id: &str| rows.iter().find(|r| r.video_id == id).unwrap();
        // Table 3: V1 534 Mbps (we accept ±5%), V2 43 Mbps, V6 ~11.8 Gbps.
        assert!(
            (505.0..=560.0).contains(&by("V1").pcb_mbps),
            "{}",
            by("V1").pcb_mbps
        );
        assert!(
            (40.0..=46.0).contains(&by("V2").pcb_mbps),
            "{}",
            by("V2").pcb_mbps
        );
        assert!(
            (11_000.0..=12_500.0).contains(&by("V6").server_mbps),
            "{}",
            by("V6").server_mbps
        );
    }

    #[test]
    fn low_entropy_videos_barely_use_the_network() {
        let rows = network_bound_analysis();
        let v2 = rows.iter().find(|r| r.video_id == "V2").unwrap();
        let v4 = rows.iter().find(|r| r.video_id == "V4").unwrap();
        assert!(v2.pcb_frac < 0.06);
        assert!(v4.pcb_frac < 0.10);
    }
}
