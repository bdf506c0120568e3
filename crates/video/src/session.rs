//! Transcode session accounting: time, frames, energy and traffic.

use socc_sim::span::{EventKind, EventLog, Scope};
use socc_sim::time::{SimDuration, SimTime};
use socc_sim::units::{DataRate, DataSize, Energy};

use crate::backend::TranscodeUnit;
use crate::quality::live_psnr;
use crate::ratecontrol::RateControl;
use crate::video::VideoMeta;

/// What a transcode session does.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum SessionKind {
    /// Real-time transcoding of a live feed for a given wall-clock span.
    Live {
        /// How long the feed runs.
        duration: SimDuration,
    },
    /// As-fast-as-possible transcoding of a stored clip.
    Archive {
        /// Number of frames in the clip.
        frames: u64,
    },
}

/// Errors from session planning.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum SessionError {
    /// The unit cannot run this kind of session (e.g. archive on MediaCodec).
    Unsupported,
    /// The unit cannot sustain even one live stream of this video.
    Overloaded,
}

impl core::fmt::Display for SessionError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SessionError::Unsupported => write!(f, "unit does not support this session kind"),
            SessionError::Overloaded => write!(f, "unit cannot sustain one stream of this video"),
        }
    }
}

impl std::error::Error for SessionError {}

/// The planned outcome of one transcode session on one unit.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct SessionReport {
    /// Wall-clock time the session occupies the unit.
    pub(crate) duration: SimDuration,
    /// Frames processed.
    pub(crate) frames: u64,
    /// Workload energy attributed to this session (unit power divided by
    /// concurrent sessions when sharing).
    pub(crate) energy: Energy,
    /// Bitrate of the produced stream.
    pub(crate) output_bitrate: DataRate,
    /// Bytes written/sent.
    pub(crate) output_size: DataSize,
    /// Estimated PSNR of the output in dB.
    pub(crate) psnr_db: f64,
}

impl SessionReport {
    /// Frames per joule of this session.
    pub(crate) fn frames_per_joule(&self) -> f64 {
        if self.energy.as_joules() <= 0.0 {
            0.0
        } else {
            self.frames as f64 / self.energy.as_joules()
        }
    }
}

/// Plans a single session of `kind` for `video` on `unit`, assuming the
/// unit runs `concurrent` identical sessions (live) or is dedicated
/// (archive). Energy is the session's share of the unit's workload power.
pub(crate) fn plan_session(
    unit: TranscodeUnit,
    video: &VideoMeta,
    kind: SessionKind,
    concurrent: usize,
) -> Result<SessionReport, SessionError> {
    match kind {
        SessionKind::Live { duration } => {
            let cap = unit.max_live_streams(video);
            if cap == 0 {
                return Err(SessionError::Overloaded);
            }
            let n = concurrent.max(1);
            if n > cap {
                return Err(SessionError::Overloaded);
            }
            let frames = (video.fps * duration.as_secs_f64()).floor() as u64;
            let power = unit.live_workload_power(video, n) / n as f64;
            let encoder = unit.encoder_kind();
            let output_bitrate =
                encoder.output_bitrate(video, RateControl::Cbr(video.target_bitrate));
            Ok(SessionReport {
                duration,
                frames,
                energy: power * duration,
                output_bitrate,
                output_size: output_bitrate * duration,
                psnr_db: live_psnr(encoder, video),
            })
        }
        SessionKind::Archive { frames } => {
            let fps = unit.archive_fps(video).ok_or(SessionError::Unsupported)?;
            if fps <= 0.0 {
                return Err(SessionError::Overloaded);
            }
            let duration = SimDuration::from_secs_f64(frames as f64 / fps);
            let power = unit.archive_workload_power(video);
            let encoder = unit.encoder_kind();
            // Archive uses quality mode at a mid CRF (vbench's consistent-
            // quality configuration).
            let rc = RateControl::Quality(23.0);
            let output_bitrate = encoder.output_bitrate(video, rc);
            let clip_seconds = frames as f64 / video.fps;
            Ok(SessionReport {
                duration,
                frames,
                energy: power * duration,
                output_bitrate,
                output_size: output_bitrate * SimDuration::from_secs_f64(clip_seconds),
                psnr_db: crate::quality::psnr(encoder, video, output_bitrate),
            })
        }
    }
}

/// [`plan_session`] wrapped in a [`Scope::Video`] span: records
/// `span_begin`/`span_end` plus a `session_planned` event carrying the
/// planned frame count (0 when planning fails) into `log` at sim time
/// `at`. Free when the log is disabled.
pub(crate) fn plan_session_traced(
    unit: TranscodeUnit,
    video: &VideoMeta,
    kind: SessionKind,
    concurrent: usize,
    log: &mut EventLog,
    at: SimTime,
) -> Result<SessionReport, SessionError> {
    let span = log.begin_span(at, Scope::Video, "plan_session");
    let result = plan_session(unit, video, kind, concurrent);
    let frames = result.as_ref().map_or(0, |r| r.frames);
    log.record(at, Scope::Video, EventKind::SessionPlanned { frames });
    log.end_span(at, Scope::Video, span, "plan_session");
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vbench;

    #[test]
    fn live_session_runs_in_real_time() {
        let v = vbench::by_id("V1").unwrap();
        let r = plan_session(
            TranscodeUnit::SocCpu,
            &v,
            SessionKind::Live {
                duration: SimDuration::from_secs(10),
            },
            1,
        )
        .unwrap();
        assert_eq!(r.duration, SimDuration::from_secs(10));
        assert_eq!(r.frames, 300);
        assert!(r.energy.as_joules() > 0.0);
        assert!(r.psnr_db > 30.0);
    }

    #[test]
    fn traced_plan_emits_span_and_event() {
        let v = vbench::by_id("V1").unwrap();
        let mut log = EventLog::new(16);
        let r = plan_session_traced(
            TranscodeUnit::SocCpu,
            &v,
            SessionKind::Archive { frames: 290 },
            1,
            &mut log,
            SimTime::from_secs(5),
        )
        .unwrap();
        let names: Vec<&str> = log.events().map(|e| e.kind.name()).collect();
        assert_eq!(names, ["span_begin", "session_planned", "span_end"]);
        let planned = log
            .events()
            .find_map(|e| match e.kind {
                EventKind::SessionPlanned { frames } => Some(frames),
                _ => None,
            })
            .unwrap();
        assert_eq!(planned, r.frames);
    }

    #[test]
    fn archive_session_faster_than_real_time_on_gpu() {
        let v = vbench::by_id("V1").unwrap();
        let r = plan_session(
            TranscodeUnit::A40Nvenc,
            &v,
            SessionKind::Archive { frames: 3000 },
            1,
        )
        .unwrap();
        // 3000 frames = 100 s of video; the A40 does 228 fps → ~13 s.
        assert!(r.duration.as_secs_f64() < 20.0, "{}", r.duration);
    }

    #[test]
    fn archive_slower_than_real_time_on_soc() {
        let v = vbench::by_id("V5").unwrap();
        let r = plan_session(
            TranscodeUnit::SocCpu,
            &v,
            SessionKind::Archive { frames: 290 },
            1,
        )
        .unwrap();
        // 10 s of V5 at 2.08 fps ≈ 139 s.
        assert!(r.duration.as_secs_f64() > 100.0);
    }

    #[test]
    fn oversubscription_is_rejected() {
        let v = vbench::by_id("V6").unwrap(); // 1 stream max on SoC CPU
        let err = plan_session(
            TranscodeUnit::SocCpu,
            &v,
            SessionKind::Live {
                duration: SimDuration::from_secs(1),
            },
            2,
        )
        .unwrap_err();
        assert_eq!(err, SessionError::Overloaded);
    }

    #[test]
    fn archive_on_mediacodec_unsupported() {
        let v = vbench::by_id("V1").unwrap();
        let err = plan_session(
            TranscodeUnit::SocHwCodec,
            &v,
            SessionKind::Archive { frames: 10 },
            1,
        )
        .unwrap_err();
        assert_eq!(err, SessionError::Unsupported);
    }

    #[test]
    fn shared_unit_splits_energy() {
        let v = vbench::by_id("V1").unwrap();
        let kind = SessionKind::Live {
            duration: SimDuration::from_secs(60),
        };
        let solo = plan_session(TranscodeUnit::SocCpu, &v, kind, 1).unwrap();
        let shared = plan_session(TranscodeUnit::SocCpu, &v, kind, 13).unwrap();
        // Per-stream energy at full load is lower than solo (activation
        // cost amortizes).
        assert!(shared.energy < solo.energy);
    }

    #[test]
    fn frames_per_joule_zero_when_no_energy() {
        let r = SessionReport {
            duration: SimDuration::ZERO,
            frames: 0,
            energy: Energy::ZERO,
            output_bitrate: DataRate::ZERO,
            output_size: DataSize::ZERO,
            psnr_db: 0.0,
        };
        assert_eq!(r.frames_per_joule(), 0.0);
    }
}
