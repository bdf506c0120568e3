//! `socc-video` — video transcoding substrate.
//!
//! Models the paper's transcoding stack (§4): libx264 on CPUs, MediaCodec
//! on the mobile hardware codec, NVENC on the A40, over the six vbench
//! videos of Table 3.
//!
//! - [`video`]: video metadata and the complexity-weighted cost model;
//! - [`vbench`]: V1–V6 with residuals calibrated to Table 3/Table 5;
//! - [`backend`]: transcode execution units (stream capacity, power);
//! - [`ratecontrol`]: CBR/quality rate control and the MediaCodec
//!   bitrate floor (Fig. 9);
//! - [`quality`]: PSNR model per encoder (Fig. 10);
//! - [`abr`]: adaptive-bitrate ladders;
//! - [`gop`]: GOP structure and the live-migration checkpoint size.
//!
//! # Examples
//!
//! ```
//! use socc_video::backend::TranscodeUnit;
//! use socc_video::vbench;
//!
//! let v1 = vbench::by_id("V1").unwrap();
//! // Table 3: one SoC CPU sustains 13 live streams of V1.
//! assert_eq!(TranscodeUnit::SocCpu.max_live_streams(&v1), 13);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod abr;
pub mod backend;
pub mod gop;
pub mod quality;
pub mod ratecontrol;
pub mod vbench;
pub mod video;

pub use backend::TranscodeUnit;
pub use video::{Resolution, VideoMeta};

// Session planning is reached only by its own tests.
#[cfg(test)]
mod session;
