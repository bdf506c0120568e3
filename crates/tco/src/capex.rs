//! Capital expenditure: component price breakdown (Table 4, top half).

/// One line item of a server's bill of materials.
#[derive(Debug, Clone, PartialEq)]
pub struct CapexItem {
    /// Component name as printed in Table 4.
    pub name: &'static str,
    /// Retail purchase cost in dollars.
    pub cost: f64,
}

/// The three server platforms of the TCO analysis (Table 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Platform {
    /// Traditional edge server with 8× NVIDIA A40.
    EdgeWithGpu,
    /// The same server with all GPUs removed ("virtual server", §6).
    EdgeWithoutGpu,
    /// The SoC Cluster.
    SocCluster,
}

impl Platform {
    /// All platforms in Table 4 column order.
    pub const ALL: [Platform; 3] = [
        Platform::EdgeWithGpu,
        Platform::EdgeWithoutGpu,
        Platform::SocCluster,
    ];

    /// Column label.
    pub fn label(self) -> &'static str {
        match self {
            Platform::EdgeWithGpu => "Edge Server",
            Platform::EdgeWithoutGpu => "Edge Server (W/O GPU)",
            Platform::SocCluster => "SoC Cluster",
        }
    }

    /// The bill of materials (Table 4).
    pub fn capex_items(self) -> Vec<CapexItem> {
        match self {
            Platform::EdgeWithGpu => vec![
                CapexItem {
                    name: "Intel CPU",
                    cost: 2_740.0,
                },
                CapexItem {
                    name: "DRAM",
                    cost: 3_540.0,
                },
                CapexItem {
                    name: "Disk",
                    cost: 1_220.0,
                },
                CapexItem {
                    name: "8x NVIDIA A40 GPU",
                    cost: 35_192.0,
                },
                CapexItem {
                    name: "Others",
                    cost: 5_544.0,
                },
            ],
            Platform::EdgeWithoutGpu => vec![
                CapexItem {
                    name: "Intel CPU",
                    cost: 2_740.0,
                },
                CapexItem {
                    name: "DRAM",
                    cost: 3_540.0,
                },
                CapexItem {
                    name: "Disk",
                    cost: 1_220.0,
                },
                CapexItem {
                    name: "Others",
                    cost: 5_544.0,
                },
            ],
            Platform::SocCluster => vec![
                CapexItem {
                    name: "60x SoC",
                    cost: 24_489.0,
                },
                CapexItem {
                    name: "12x PCB",
                    cost: 7_075.0,
                },
                CapexItem {
                    name: "Ethernet Switch Board",
                    cost: 689.0,
                },
                CapexItem {
                    name: "BMC",
                    cost: 1_923.0,
                },
                CapexItem {
                    name: "Others",
                    cost: 2_104.0,
                },
            ],
        }
    }

    /// Total CapEx in dollars.
    pub(crate) fn total_capex(self) -> f64 {
        self.capex_items().iter().map(|i| i.cost).sum()
    }

    /// Average peak power while live-transcoding V5 (Table 4), in watts.
    pub(crate) fn avg_peak_power_w(self) -> f64 {
        match self {
            Platform::EdgeWithGpu => socc_hw::calib::EDGE_GPU_AVG_PEAK_W,
            Platform::EdgeWithoutGpu => socc_hw::calib::EDGE_CPU_AVG_PEAK_W,
            Platform::SocCluster => socc_hw::calib::CLUSTER_AVG_PEAK_W,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_match_table4() {
        assert_eq!(Platform::EdgeWithGpu.total_capex(), 48_236.0);
        assert_eq!(Platform::EdgeWithoutGpu.total_capex(), 13_044.0);
        assert_eq!(Platform::SocCluster.total_capex(), 36_280.0);
    }

    #[test]
    fn gpus_dominate_edge_capex() {
        // Table 4: the A40s are 73.0% of the GPU server's CapEx.
        let total = Platform::EdgeWithGpu.total_capex();
        let gpus = Platform::EdgeWithGpu
            .capex_items()
            .iter()
            .find(|i| i.name.contains("A40"))
            .unwrap()
            .cost;
        assert!((gpus / total - 0.73).abs() < 0.005);
    }

    #[test]
    fn socs_and_pcbs_dominate_cluster_capex() {
        // Table 4: 60 SoCs + 12 PCBs ≈ 87% of the cluster's CapEx.
        let total = Platform::SocCluster.total_capex();
        let share = (24_489.0 + 7_075.0) / total;
        assert!((share - 0.87).abs() < 0.01, "share {share}");
    }

    #[test]
    fn cluster_capex_between_the_two_edges() {
        // §6: "SoC Cluster has a lower CapEx than the traditional edge
        // server with 8 NVIDIA GPUs but costs about 2.8× more than a
        // CPU-only edge server."
        let cluster = Platform::SocCluster.total_capex();
        assert!(cluster < Platform::EdgeWithGpu.total_capex());
        let ratio = cluster / Platform::EdgeWithoutGpu.total_capex();
        assert!((2.7..=2.9).contains(&ratio), "ratio {ratio}");
    }
}
