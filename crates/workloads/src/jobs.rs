//! Job-stream generators: transcode jobs and DL request streams.

use socc_sim::rng::SimRng;
use socc_sim::time::{SimDuration, SimTime};

use crate::arrivals::DiurnalPoisson;

/// One archive transcode job.
#[derive(Debug, Clone, PartialEq)]
pub struct ArchiveJob {
    /// Submission time.
    pub at: SimTime,
    /// vbench video id ("V1".."V6").
    pub video_id: String,
    /// Clip length in frames.
    pub frames: u64,
}

/// Generates an archive job stream: Poisson arrivals over the vbench
/// catalogue with log-normal clip lengths (median ~2 minutes of video).
pub fn archive_job_stream(
    rate_per_hour: f64,
    horizon: SimDuration,
    rng: &mut SimRng,
) -> Vec<ArchiveJob> {
    let arrivals = crate::arrivals::Poisson::new(rate_per_hour / 3600.0).generate(horizon, rng);
    arrivals
        .into_iter()
        .map(|at| {
            let idx = rng.uniform_usize(0, 6);
            let video_id = format!("V{}", idx + 1);
            let minutes = rng.lognormal((2.0f64).ln(), 0.7);
            let fps = [30.0, 30.0, 59.0, 25.0, 29.0, 30.0][idx];
            ArchiveJob {
                at,
                video_id,
                frames: (minutes * 60.0 * fps).max(1.0) as u64,
            }
        })
        .collect()
}

/// One live-stream session: start time plus duration.
#[derive(Debug, Clone, PartialEq)]
pub struct LiveSession {
    /// Session start.
    pub start: SimTime,
    /// Session length.
    pub duration: SimDuration,
    /// vbench video id.
    pub video_id: String,
}

/// Generates diurnal live-stream sessions (live traffic follows viewers).
pub fn live_session_stream(
    peak_starts_per_hour: f64,
    horizon: SimDuration,
    rng: &mut SimRng,
) -> Vec<LiveSession> {
    let process = DiurnalPoisson {
        peak_rate: peak_starts_per_hour / 3600.0,
        trough_ratio: 0.08,
        peak_hour: 20.0,
    };
    process
        .generate(horizon, rng)
        .into_iter()
        .map(|start| {
            let idx = rng.uniform_usize(0, 6);
            let mins = rng.lognormal((25.0f64).ln(), 0.6);
            LiveSession {
                start,
                duration: SimDuration::from_secs_f64(mins * 60.0),
                video_id: format!("V{}", idx + 1),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn archive_stream_rate_and_catalogue() {
        let mut rng = SimRng::seed(21);
        let jobs = archive_job_stream(60.0, SimDuration::from_hours(48), &mut rng);
        let per_hour = jobs.len() as f64 / 48.0;
        assert!((per_hour - 60.0).abs() < 6.0, "rate {per_hour}");
        for j in &jobs {
            assert!(j.frames > 0);
            assert!(["V1", "V2", "V3", "V4", "V5", "V6"].contains(&j.video_id.as_str()));
        }
    }

    #[test]
    fn clip_lengths_median_near_2min() {
        let mut rng = SimRng::seed(22);
        let jobs = archive_job_stream(600.0, SimDuration::from_hours(24), &mut rng);
        // Normalize by fps: median minutes ≈ 2.
        let mins: Vec<f64> = jobs
            .iter()
            .map(|j| {
                let fps = match j.video_id.as_str() {
                    "V3" => 59.0,
                    "V4" => 25.0,
                    "V5" => 29.0,
                    _ => 30.0,
                };
                j.frames as f64 / fps / 60.0
            })
            .collect();
        let median = socc_sim::stats::percentile(&mins, 0.5).unwrap();
        assert!((1.5..=2.6).contains(&median), "median {median}");
    }

    #[test]
    fn live_sessions_follow_diurnal_shape() {
        let mut rng = SimRng::seed(23);
        let sessions = live_session_stream(200.0, SimDuration::from_hours(24), &mut rng);
        let evening = sessions
            .iter()
            .filter(|s| (18.0..23.0).contains(&(s.start.as_secs_f64() / 3600.0)))
            .count();
        let morning = sessions
            .iter()
            .filter(|s| (5.0..10.0).contains(&(s.start.as_secs_f64() / 3600.0)))
            .count();
        assert!(
            evening > 2 * morning.max(1),
            "evening {evening} morning {morning}"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let a = archive_job_stream(60.0, SimDuration::from_hours(4), &mut SimRng::seed(3));
        let b = archive_job_stream(60.0, SimDuration::from_hours(4), &mut SimRng::seed(3));
        assert_eq!(a, b);
    }
}
