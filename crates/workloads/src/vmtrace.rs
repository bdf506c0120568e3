//! Synthetic VM-subscription populations (Fig. 1).
//!
//! Fig. 1 plots the CDF of resource subscriptions of 2.7 M Azure VMs and
//! 7,410 Alibaba ENS VMs, and finds that 66% / 36% respectively fit within
//! one Snapdragon 865's envelope (8 cores, 12 GB RAM, 256 GB storage). The
//! mixtures below are fitted to those published quantiles: Azure skews
//! small-and-many; edge VMs are mid-sized (the ENS median is 8 vCPUs, §3).

use socc_sim::rng::SimRng;

/// One VM's resource subscription.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VmSubscription {
    /// vCPU cores.
    pub cores: u32,
    /// Memory in GB.
    pub(crate) mem_gb: f64,
    /// Storage in GB.
    pub(crate) storage_gb: f64,
}

impl VmSubscription {
    /// Whether this VM fits within one Snapdragon 865 SoC's envelope.
    pub fn fits_in_soc(&self) -> bool {
        self.cores <= 8 && self.mem_gb <= 12.0 && self.storage_gb <= 256.0
    }
}

/// A VM population model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VmPopulation {
    /// Microsoft Azure (Cortez et al., paper ref 46): 2.7 M VMs, mostly small.
    Azure,
    /// Alibaba ENS (Xu et al., paper ref 85): 7,410 edge VMs, median 8 vCPUs.
    AlibabaEns,
}

impl VmPopulation {
    /// Number of VMs in the paper's dataset.
    pub fn dataset_size(self) -> usize {
        match self {
            VmPopulation::Azure => 2_700_000,
            VmPopulation::AlibabaEns => 7_410,
        }
    }

    /// Fraction of VMs the paper reports as fitting in one SoC.
    pub fn paper_fit_fraction(self) -> f64 {
        match self {
            VmPopulation::Azure => 0.66,
            VmPopulation::AlibabaEns => 0.36,
        }
    }

    /// `(cores, probability)` mixture of vCPU counts.
    fn core_pmf(self) -> &'static [(u32, f64)] {
        match self {
            VmPopulation::Azure => &[
                (1, 0.22),
                (2, 0.30),
                (4, 0.24),
                (8, 0.14),
                (16, 0.06),
                (32, 0.03),
                (64, 0.01),
            ],
            VmPopulation::AlibabaEns => &[
                (1, 0.08),
                (2, 0.17),
                (4, 0.22),
                (8, 0.28),
                (16, 0.15),
                (32, 0.10),
            ],
        }
    }

    /// `(GB per core, probability)` memory ratio mixture.
    fn mem_per_core_pmf(self) -> &'static [(f64, f64)] {
        match self {
            VmPopulation::Azure => &[(1.0, 0.30), (2.0, 0.35), (4.0, 0.25), (8.0, 0.10)],
            VmPopulation::AlibabaEns => &[(1.0, 0.15), (2.0, 0.35), (4.0, 0.35), (8.0, 0.15)],
        }
    }

    /// Median of the log-normal storage distribution in GB.
    fn storage_median_gb(self) -> f64 {
        match self {
            VmPopulation::Azure => 32.0,
            VmPopulation::AlibabaEns => 60.0,
        }
    }

    fn sample_pmf<T: Copy>(rng: &mut SimRng, pmf: &[(T, f64)]) -> T {
        let u = rng.next_f64();
        let mut acc = 0.0;
        for &(v, p) in pmf {
            acc += p;
            if u < acc {
                return v;
            }
        }
        pmf.last().expect("non-empty pmf").0
    }

    /// Samples one VM subscription.
    pub(crate) fn sample(self, rng: &mut SimRng) -> VmSubscription {
        let cores = Self::sample_pmf(rng, self.core_pmf());
        let mem_per_core = Self::sample_pmf(rng, self.mem_per_core_pmf());
        let storage = rng.lognormal(self.storage_median_gb().ln(), 1.2);
        VmSubscription {
            cores,
            mem_gb: cores as f64 * mem_per_core,
            storage_gb: storage,
        }
    }

    /// Samples `n` VMs.
    pub fn sample_many(self, n: usize, rng: &mut SimRng) -> Vec<VmSubscription> {
        (0..n).map(|_| self.sample(rng)).collect()
    }

    /// Monte-Carlo estimate of the fit-in-SoC fraction.
    #[cfg(test)]
    pub(crate) fn fit_fraction(self, n: usize, rng: &mut SimRng) -> f64 {
        if n == 0 {
            return 0.0;
        }
        let fit = (0..n).filter(|_| self.sample(rng).fits_in_soc()).count();
        fit as f64 / n as f64
    }
}

/// Empirical CDF over a metric of a sampled population: returns
/// `(value, cumulative fraction)` at each distinct value, ascending.
pub fn empirical_cdf(values: &mut [f64]) -> Vec<(f64, f64)> {
    if values.is_empty() {
        return Vec::new();
    }
    values.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in CDF input"));
    let n = values.len() as f64;
    let mut out: Vec<(f64, f64)> = Vec::new();
    for (i, &v) in values.iter().enumerate() {
        let frac = (i + 1) as f64 / n;
        match out.last_mut() {
            Some(last) if last.0 == v => last.1 = frac,
            _ => out.push((v, frac)),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn azure_fit_fraction_near_66_percent() {
        let mut rng = SimRng::seed(1);
        let frac = VmPopulation::Azure.fit_fraction(100_000, &mut rng);
        assert!((0.62..=0.70).contains(&frac), "frac {frac}");
    }

    #[test]
    fn alibaba_fit_fraction_near_36_percent() {
        let mut rng = SimRng::seed(2);
        let frac = VmPopulation::AlibabaEns.fit_fraction(100_000, &mut rng);
        assert!((0.31..=0.41).contains(&frac), "frac {frac}");
    }

    #[test]
    fn alibaba_median_is_8_vcpus() {
        // §3: "8 is the median number of vCPU cores for edge IaaS VMs".
        let mut rng = SimRng::seed(3);
        let cores: Vec<f64> = VmPopulation::AlibabaEns
            .sample_many(50_000, &mut rng)
            .iter()
            .map(|v| v.cores as f64)
            .collect();
        let median = socc_sim::stats::percentile(&cores, 0.5).unwrap();
        assert_eq!(median, 8.0);
    }

    #[test]
    fn azure_skews_smaller_than_alibaba() {
        let mut rng = SimRng::seed(4);
        let az: f64 = VmPopulation::Azure
            .sample_many(20_000, &mut rng)
            .iter()
            .map(|v| v.cores as f64)
            .sum::<f64>()
            / 20_000.0;
        let ali: f64 = VmPopulation::AlibabaEns
            .sample_many(20_000, &mut rng)
            .iter()
            .map(|v| v.cores as f64)
            .sum::<f64>()
            / 20_000.0;
        assert!(az < ali, "azure mean {az} vs alibaba {ali}");
    }

    #[test]
    fn pmfs_sum_to_one() {
        for pop in [VmPopulation::Azure, VmPopulation::AlibabaEns] {
            let c: f64 = pop.core_pmf().iter().map(|&(_, p)| p).sum();
            let m: f64 = pop.mem_per_core_pmf().iter().map(|&(_, p)| p).sum();
            assert!((c - 1.0).abs() < 1e-9, "{pop:?} cores {c}");
            assert!((m - 1.0).abs() < 1e-9, "{pop:?} mem {m}");
        }
    }

    #[test]
    fn fit_predicate_boundaries() {
        let fits = VmSubscription {
            cores: 8,
            mem_gb: 12.0,
            storage_gb: 256.0,
        };
        assert!(fits.fits_in_soc());
        assert!(!VmSubscription { cores: 9, ..fits }.fits_in_soc());
        assert!(!VmSubscription {
            mem_gb: 12.5,
            ..fits
        }
        .fits_in_soc());
        assert!(!VmSubscription {
            storage_gb: 257.0,
            ..fits
        }
        .fits_in_soc());
    }

    #[test]
    fn cdf_is_monotone_and_complete() {
        let mut values = vec![4.0, 1.0, 2.0, 2.0, 8.0];
        let cdf = empirical_cdf(&mut values);
        assert_eq!(cdf.first().unwrap().0, 1.0);
        assert_eq!(cdf.last().unwrap(), &(8.0, 1.0));
        for pair in cdf.windows(2) {
            assert!(pair[1].0 > pair[0].0);
            assert!(pair[1].1 > pair[0].1);
        }
        // Duplicate value collapsed with cumulative fraction.
        let two = cdf.iter().find(|(v, _)| *v == 2.0).unwrap();
        assert!((two.1 - 0.6).abs() < 1e-9);
    }

    #[test]
    fn empty_cdf() {
        assert!(empirical_cdf(&mut []).is_empty());
    }
}
