//! SoC generation registry for the longitudinal study (§7, Table 6, Fig. 14).
//!
//! The paper measures six high-end Snapdragon generations (2017–2022) on
//! DL serving and live transcoding. Each generation here carries speed
//! multipliers *relative to the Snapdragon 865* (the SoC Cluster's chip),
//! calibrated from the ratios reported in §7.

/// The six Snapdragon generations of the longitudinal study (Table 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SocGeneration {
    /// Snapdragon 835 (2017, Xiaomi 6).
    Sd835,
    /// Snapdragon 845 (2018, Xiaomi 8).
    Sd845,
    /// Snapdragon 855 (2019, Meizu 16T).
    Sd855,
    /// Snapdragon 865 (2020, Meizu 17) — the SoC Cluster chip.
    Sd865,
    /// Snapdragon 888 (2021, Xiaomi 11 Pro).
    Sd888,
    /// Snapdragon 8+ Gen 1 (2022, Xiaomi 12S).
    Sd8Gen1Plus,
}

impl SocGeneration {
    /// All generations in release order.
    pub const ALL: [SocGeneration; 6] = [
        SocGeneration::Sd835,
        SocGeneration::Sd845,
        SocGeneration::Sd855,
        SocGeneration::Sd865,
        SocGeneration::Sd888,
        SocGeneration::Sd8Gen1Plus,
    ];

    /// Marketing name.
    pub fn name(self) -> &'static str {
        match self {
            SocGeneration::Sd835 => "Snapdragon 835",
            SocGeneration::Sd845 => "Snapdragon 845",
            SocGeneration::Sd855 => "Snapdragon 855",
            SocGeneration::Sd865 => "Snapdragon 865",
            SocGeneration::Sd888 => "Snapdragon 888",
            SocGeneration::Sd8Gen1Plus => "Snapdragon 8+ Gen 1",
        }
    }

    /// Release year.
    pub fn release_year(self) -> u32 {
        match self {
            SocGeneration::Sd835 => 2017,
            SocGeneration::Sd845 => 2018,
            SocGeneration::Sd855 => 2019,
            SocGeneration::Sd865 => 2020,
            SocGeneration::Sd888 => 2021,
            SocGeneration::Sd8Gen1Plus => 2022,
        }
    }

    /// DL-inference CPU speed relative to the SD865.
    ///
    /// Anchors (§7): 4.8× total CPU latency reduction from 2017 to 2022.
    pub fn dl_cpu_speed(self) -> f64 {
        match self {
            SocGeneration::Sd835 => 0.42,
            SocGeneration::Sd845 => 0.53,
            SocGeneration::Sd855 => 0.70,
            SocGeneration::Sd865 => 1.00,
            SocGeneration::Sd888 => 1.40,
            SocGeneration::Sd8Gen1Plus => 2.02, // 0.42 × 4.8
        }
    }

    /// DL-inference GPU speed relative to the SD865.
    ///
    /// Anchors (§7): 3.2× total GPU latency reduction from 2017 to 2022.
    pub fn dl_gpu_speed(self) -> f64 {
        match self {
            SocGeneration::Sd835 => 0.55,
            SocGeneration::Sd845 => 0.66,
            SocGeneration::Sd855 => 0.80,
            SocGeneration::Sd865 => 1.00,
            SocGeneration::Sd888 => 1.30,
            SocGeneration::Sd8Gen1Plus => 1.76, // 0.55 × 3.2
        }
    }

    /// DL-inference DSP speed relative to the SD865, or `None` if the
    /// generation's DSP cannot run the quantized serving workload.
    ///
    /// Anchors (§7): 8.4× DSP latency reduction from the SD845 to the
    /// SD8+Gen1 ("a significant performance boost in SoC DSPs").
    pub fn dl_dsp_speed(self) -> Option<f64> {
        match self {
            SocGeneration::Sd835 => None, // Hexagon 682 pre-dates usable tensor offload
            SocGeneration::Sd845 => Some(0.45),
            SocGeneration::Sd855 => Some(0.65),
            SocGeneration::Sd865 => Some(1.00),
            SocGeneration::Sd888 => Some(1.90),
            SocGeneration::Sd8Gen1Plus => Some(3.78), // 0.45 × 8.4
        }
    }

    /// Live-transcoding CPU (libx264) speed relative to the SD865.
    ///
    /// Anchors (§7): SD865 V4 throughput is 1.42×/1.82×/2.3× that of the
    /// 855/845/835, and the 8+Gen1 is 1.8× the SD865.
    pub fn video_cpu_speed(self) -> f64 {
        match self {
            SocGeneration::Sd835 => 1.0 / 2.30,
            SocGeneration::Sd845 => 1.0 / 1.82,
            SocGeneration::Sd855 => 1.0 / 1.42,
            SocGeneration::Sd865 => 1.00,
            SocGeneration::Sd888 => 1.35,
            SocGeneration::Sd8Gen1Plus => 1.80,
        }
    }

    /// Live-transcoding hardware-codec speed relative to the SD865.
    ///
    /// Anchors (§7): the SD865 codec is 3.8× (V4) and 3.24× (V5) faster
    /// than the SD835's; intermediate generations interpolated.
    pub fn video_hw_speed(self) -> f64 {
        match self {
            SocGeneration::Sd835 => 1.0 / 3.52, // geomean of 3.8 and 3.24
            SocGeneration::Sd845 => 0.42,
            SocGeneration::Sd855 => 0.65,
            SocGeneration::Sd865 => 1.00,
            SocGeneration::Sd888 => 1.30,
            SocGeneration::Sd8Gen1Plus => 1.70,
        }
    }

    /// DSP batch-8 throughput gain over batch-1 (§7: "the latest Snapdragon
    /// 8+Gen1 phone achieved 1.7× higher throughput on its DSP when setting
    /// the batch size to 8").
    #[cfg(test)]
    pub(crate) fn dsp_batch8_gain(self) -> f64 {
        match self {
            SocGeneration::Sd8Gen1Plus => 1.7,
            _ => 1.15,
        }
    }
}

/// A phone used in the longitudinal study (Table 6).
#[derive(Debug, Clone)]
pub struct DeviceSpec {
    /// Device marketing name.
    pub device: &'static str,
    /// SoC generation.
    pub soc: SocGeneration,
    /// RAM in GB.
    pub ram_gb: f64,
    /// Android version string.
    pub os: &'static str,
    /// Release date string as printed in Table 6.
    pub release: &'static str,
}

/// The six phones of Table 6, newest first (as in the paper).
pub fn longitudinal_devices() -> Vec<DeviceSpec> {
    vec![
        DeviceSpec {
            device: "Xiaomi 12 S",
            soc: SocGeneration::Sd8Gen1Plus,
            ram_gb: 12.0,
            os: "Android 12",
            release: "May 2022",
        },
        DeviceSpec {
            device: "Xiaomi 11 Pro",
            soc: SocGeneration::Sd888,
            ram_gb: 8.0,
            os: "Android 11",
            release: "Jun. 2021",
        },
        DeviceSpec {
            device: "Meizu 17",
            soc: SocGeneration::Sd865,
            ram_gb: 8.0,
            os: "Android 10",
            release: "Mar. 2020",
        },
        DeviceSpec {
            device: "Meizu 16T",
            soc: SocGeneration::Sd855,
            ram_gb: 6.0,
            os: "Android 9",
            release: "Mar. 2019",
        },
        DeviceSpec {
            device: "Xiaomi 8",
            soc: SocGeneration::Sd845,
            ram_gb: 6.0,
            os: "Android 8.1",
            release: "Feb. 2018",
        },
        DeviceSpec {
            device: "Xiaomi 6",
            soc: SocGeneration::Sd835,
            ram_gb: 6.0,
            os: "Android 7.1.1",
            release: "Mar. 2017",
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speeds_monotonically_improve() {
        let mut prev_cpu = 0.0;
        let mut prev_gpu = 0.0;
        for g in SocGeneration::ALL {
            assert!(g.dl_cpu_speed() > prev_cpu, "{:?}", g);
            assert!(g.dl_gpu_speed() > prev_gpu, "{:?}", g);
            prev_cpu = g.dl_cpu_speed();
            prev_gpu = g.dl_gpu_speed();
        }
    }

    #[test]
    fn paper_ratio_anchors_hold() {
        // §7: 4.8× CPU and 3.2× GPU reduction from 2017 to 2022.
        let cpu_gain =
            SocGeneration::Sd8Gen1Plus.dl_cpu_speed() / SocGeneration::Sd835.dl_cpu_speed();
        assert!((cpu_gain - 4.8).abs() < 0.05, "cpu gain {cpu_gain}");
        let gpu_gain =
            SocGeneration::Sd8Gen1Plus.dl_gpu_speed() / SocGeneration::Sd835.dl_gpu_speed();
        assert!((gpu_gain - 3.2).abs() < 0.05, "gpu gain {gpu_gain}");
        // §7: 8.4× DSP reduction from the 845.
        let dsp_gain = SocGeneration::Sd8Gen1Plus.dl_dsp_speed().unwrap()
            / SocGeneration::Sd845.dl_dsp_speed().unwrap();
        assert!((dsp_gain - 8.4).abs() < 0.05, "dsp gain {dsp_gain}");
    }

    #[test]
    fn video_cpu_anchors_hold() {
        // §7: SD865 V4 throughput = 1.42×/1.82×/2.3× of 855/845/835.
        let s865 = SocGeneration::Sd865.video_cpu_speed();
        assert!((s865 / SocGeneration::Sd855.video_cpu_speed() - 1.42).abs() < 0.02);
        assert!((s865 / SocGeneration::Sd845.video_cpu_speed() - 1.82).abs() < 0.02);
        assert!((s865 / SocGeneration::Sd835.video_cpu_speed() - 2.30).abs() < 0.02);
        assert!((SocGeneration::Sd8Gen1Plus.video_cpu_speed() - 1.8).abs() < 0.02);
    }

    #[test]
    fn sd835_dsp_unavailable() {
        assert!(SocGeneration::Sd835.dl_dsp_speed().is_none());
    }

    #[test]
    fn table6_registry_complete() {
        let devices = longitudinal_devices();
        assert_eq!(devices.len(), 6);
        // Newest first, years strictly decreasing.
        let years: Vec<u32> = devices.iter().map(|d| d.soc.release_year()).collect();
        assert!(years.windows(2).all(|w| w[0] > w[1]));
        assert_eq!(devices[0].device, "Xiaomi 12 S");
        assert_eq!(devices[5].os, "Android 7.1.1");
    }

    #[test]
    fn batch8_gain_anchor() {
        assert_eq!(SocGeneration::Sd8Gen1Plus.dsp_batch8_gain(), 1.7);
    }
}
