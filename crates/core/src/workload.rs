//! Workload specifications accepted by the orchestrator.

use socc_dl::{DType, Engine, ModelId};
use socc_video::VideoMeta;

/// Identifies a deployed workload instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct WorkloadId(pub u64);

/// Which SoC processor a DL serving workload runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SocProcessor {
    /// The Kryo CPU complex (TFLite).
    Cpu,
    /// The Adreno GPU (TFLite GPU delegate).
    Gpu,
    /// The Hexagon DSP (quantized only).
    Dsp,
}

impl SocProcessor {
    /// The engine model backing this processor on a cluster SoC.
    pub(crate) fn engine(self) -> Engine {
        match self {
            SocProcessor::Cpu => Engine::TfLiteCpu,
            SocProcessor::Gpu => Engine::TfLiteGpu,
            SocProcessor::Dsp => Engine::QnnDsp,
        }
    }
}

/// A workload submitted to the orchestrator.
#[derive(Debug, Clone)]
pub enum WorkloadSpec {
    /// A live transcode stream pinned to the SoC CPU (libx264).
    LiveStreamCpu {
        /// The video being transcoded.
        video: VideoMeta,
    },
    /// A live transcode stream on the SoC hardware codec (MediaCodec).
    LiveStreamHw {
        /// The video being transcoded.
        video: VideoMeta,
    },
    /// An archive transcode job (one clip, as fast as possible, whole CPU).
    ArchiveJob {
        /// The video being transcoded.
        video: VideoMeta,
        /// Clip length in frames.
        frames: u64,
    },
    /// A continuous DL inference stream.
    DlServe {
        /// Target processor.
        processor: SocProcessor,
        /// Model served.
        model: ModelId,
        /// Serving precision.
        dtype: DType,
        /// Offered load in samples/s.
        offered_fps: f64,
    },
    /// A cloud-gaming session (the deployed clusters' production workload,
    /// §2.3): a GPU render slot plus outbound stream traffic.
    GamingSession {
        /// Outbound video bitrate in Mbps.
        stream_mbps: f64,
    },
}

impl WorkloadSpec {
    /// Short kind label for telemetry.
    #[cfg(test)]
    pub(crate) fn kind(&self) -> &'static str {
        match self {
            WorkloadSpec::LiveStreamCpu { .. } => "live-cpu",
            WorkloadSpec::LiveStreamHw { .. } => "live-hw",
            WorkloadSpec::ArchiveJob { .. } => "archive",
            WorkloadSpec::DlServe { .. } => "dl-serve",
            WorkloadSpec::GamingSession { .. } => "gaming",
        }
    }
}

/// Why the orchestrator refused a workload.
#[derive(Debug, Clone, PartialEq)]
pub enum AdmissionError {
    /// No SoC has the spare capacity the workload needs.
    NoCapacity,
    /// The workload's network demand would oversubscribe the fabric.
    NetworkBound,
    /// The SoC software stack cannot run this combination (e.g. FP32 on
    /// the DSP, archive on MediaCodec).
    Unsupported,
    /// The cluster is running degraded (PSU brownout) and admission is
    /// restricted to priorities at or above the configured floor.
    Degraded,
}

impl core::fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            AdmissionError::NoCapacity => write!(f, "no SoC has spare capacity"),
            AdmissionError::NetworkBound => write!(f, "fabric bandwidth exhausted"),
            AdmissionError::Unsupported => write!(f, "unsupported workload for this hardware"),
            AdmissionError::Degraded => {
                write!(f, "cluster degraded: priority below the admission floor")
            }
        }
    }
}

impl std::error::Error for AdmissionError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn processor_engines() {
        assert_eq!(SocProcessor::Cpu.engine(), Engine::TfLiteCpu);
        assert_eq!(SocProcessor::Gpu.engine(), Engine::TfLiteGpu);
        assert_eq!(SocProcessor::Dsp.engine(), Engine::QnnDsp);
    }

    #[test]
    fn kind_labels() {
        let v = socc_video::vbench::by_id("V1").unwrap();
        assert_eq!(
            WorkloadSpec::LiveStreamCpu { video: v.clone() }.kind(),
            "live-cpu"
        );
        assert_eq!(
            WorkloadSpec::ArchiveJob {
                video: v,
                frames: 1
            }
            .kind(),
            "archive"
        );
        assert_eq!(
            WorkloadSpec::GamingSession { stream_mbps: 8.0 }.kind(),
            "gaming"
        );
    }
}
